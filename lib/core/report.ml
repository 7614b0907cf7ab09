module Stats = Tyco_support.Stats

type site_stats = {
  ss_name : string;
  ss_instructions : int;
  ss_threads : int;
  ss_comm_local : int;
  ss_packets_in : int;
  ss_packets_out : int;
  ss_fetches : int;
  ss_links : int;
  ss_thread_len_mean : float;
  ss_thread_len_p95 : float;
  ss_runq_depth_mean : float;
}

type breakdown = {
  b_queue_wait : Stats.Dist.summary option;
  b_wire : Stats.Dist.summary option;
  b_retransmit : Stats.Dist.summary option;
  b_execute : Stats.Dist.summary option;
  b_flush_wait : Stats.Dist.summary option;
}

(* Resident protocol state summed over sites, plus lifetime
   reclamation counters — the evidence that a run's memory tracked its
   working set (flat live counts, growing reclaimed counts).  The GC
   numbers are the host process's ([Gc.quick_stat]), meaningful for
   wall-clock runs. *)
type memory = {
  mem_chan_live : int;
  mem_chan_allocated : int;
  mem_class_live : int;
  mem_class_allocated : int;
  mem_done_reqs : int;
  mem_code_cache : int;
  mem_fetch_cache : int;
  mem_held_imports : int;
  mem_ids_reclaimed : int;
  mem_leases_expired : int;
  mem_lease_refreshes : int;
  mem_stale_refs : int;
  mem_done_pruned : int;
  mem_cache_evictions : int;
  mem_held_dropped : int;
  mem_gc_minor_words : float;
  mem_gc_major_words : float;
  mem_gc_heap_words : int;
}

type t = {
  virtual_ns : int;
  sim_events : int;
  packets : int;
  bytes : int;
  same_node_fast : int;
  frames_sent : int;
  batch_fill_mean : float;
  acks_piggybacked : int;
  outputs : (int * Output.event) list;
  sites : site_stats list;
  breakdown : breakdown;
  suspected_failures : (int * string) list;
  memory : memory;
}

let site_stats site =
  let s = Site.stats site in
  let c name = Stats.Counter.value (Stats.counter s name) in
  let d = Stats.dist s "thread_len" in
  let rq = Stats.dist s "runq_depth" in
  { ss_name = Site.name site;
    ss_instructions = c "instructions";
    ss_threads = c "threads";
    ss_comm_local = c "comm_local";
    ss_packets_in = c "packets_in";
    ss_packets_out = c "packets_out";
    ss_fetches = c "fetches";
    ss_links = c "links";
    ss_thread_len_mean = (if Stats.Dist.count d = 0 then 0. else Stats.Dist.mean d);
    ss_thread_len_p95 =
      (if Stats.Dist.count d = 0 then 0. else Stats.Dist.percentile d 0.95);
    ss_runq_depth_mean =
      (if Stats.Dist.count rq = 0 then 0. else Stats.Dist.mean rq) }

(* Pool one distribution across registries (sites' queue-wait and
   execute, shards' handoff latency): a fresh Dist that absorbs each
   one's.  The pool is an estimate past the reservoir cap, like its
   inputs. *)
let pool name registries =
  let d = Stats.Dist.create name in
  List.iter (fun s -> Stats.Dist.absorb d (Stats.dist s name)) registries;
  Stats.Dist.summary_opt d

let pooled name sites = pool name (List.map Site.stats sites)

let memory_of_sites sites =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sites in
  let sumc name =
    sum (fun s -> Stats.Counter.value (Stats.counter (Site.stats s) name))
  in
  let m f = sum (fun s -> f (Site.memory s)) in
  let gc = Gc.quick_stat () in
  { mem_chan_live = m (fun x -> x.Site.m_chan_live);
    mem_chan_allocated = m (fun x -> x.Site.m_chan_allocated);
    mem_class_live = m (fun x -> x.Site.m_class_live);
    mem_class_allocated = m (fun x -> x.Site.m_class_allocated);
    mem_done_reqs = m (fun x -> x.Site.m_done_reqs);
    mem_code_cache = m (fun x -> x.Site.m_obj_cache + x.Site.m_grp_cache);
    mem_fetch_cache = m (fun x -> x.Site.m_fetch_cache);
    mem_held_imports = m (fun x -> x.Site.m_held);
    mem_ids_reclaimed = sumc "ids_reclaimed";
    mem_leases_expired = sumc "leases_expired";
    mem_lease_refreshes = sumc "lease_refreshes";
    mem_stale_refs = sumc "stale_refs";
    mem_done_pruned = sumc "done_reqs_pruned";
    mem_cache_evictions = sumc "code_cache_evictions";
    mem_held_dropped = sumc "held_imports_dropped";
    mem_gc_minor_words = gc.Gc.minor_words;
    mem_gc_major_words = gc.Gc.major_words;
    mem_gc_heap_words = gc.Gc.heap_words }

let of_cluster cluster =
  let sites = Cluster.sites cluster in
  let cstats = Cluster.stats cluster in
  { virtual_ns = Cluster.virtual_time cluster;
    sim_events = Tyco_net.Simnet.events_processed (Cluster.sim cluster);
    packets = Cluster.packets_sent cluster;
    bytes = Cluster.bytes_sent cluster;
    same_node_fast = Cluster.same_node_fast cluster;
    frames_sent = Cluster.frames_sent cluster;
    batch_fill_mean = Cluster.batch_fill_mean cluster;
    acks_piggybacked = Cluster.acks_piggybacked cluster;
    outputs = Cluster.outputs cluster;
    sites = List.map site_stats sites;
    breakdown =
      { b_queue_wait = pooled "queue_wait_ns" sites;
        b_wire = Stats.Dist.summary_opt (Stats.dist cstats "wire_ns");
        b_retransmit =
          Stats.Dist.summary_opt (Stats.dist cstats "retransmit_ns");
        b_execute = pooled "execute_ns" sites;
        b_flush_wait =
          Stats.Dist.summary_opt (Stats.dist cstats "flush_wait_ns") };
    suspected_failures = Cluster.suspected_failures cluster;
    memory = memory_of_sites sites }

let of_result (r : Api.result) = of_cluster r.Api.cluster

(* ------------------------------------------------------------------ *)
(* Minimal JSON emission.                                              *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""

let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let jfloat f =
  (* JSON has no NaN/inf; clamp to 0 like most emitters *)
  if Float.is_finite f then Printf.sprintf "%.2f" f else "0"

let output_value_json = function
  | Output.Oint n -> string_of_int n
  | Output.Obool b -> string_of_bool b
  | Output.Ostr s -> jstr s
  | Output.Ochan c -> jstr ("#" ^ c)

let output_json (ts, (e : Output.event)) =
  Printf.sprintf "{\"t\":%d,\"site\":%s,\"label\":%s,\"args\":%s}" ts
    (jstr e.Output.site) (jstr e.Output.label)
    (jlist output_value_json e.Output.args)

let site_json s =
  Printf.sprintf
    "{\"name\":%s,\"instructions\":%d,\"threads\":%d,\"comm_local\":%d,\
     \"packets_in\":%d,\"packets_out\":%d,\"fetches\":%d,\"links\":%d,\
     \"thread_len_mean\":%s,\"thread_len_p95\":%s,\"runq_depth_mean\":%s}"
    (jstr s.ss_name) s.ss_instructions s.ss_threads s.ss_comm_local
    s.ss_packets_in s.ss_packets_out s.ss_fetches s.ss_links
    (jfloat s.ss_thread_len_mean)
    (jfloat s.ss_thread_len_p95)
    (jfloat s.ss_runq_depth_mean)

(* An absent summary (no samples — e.g. an idle site) is [null], never
   [inf]: {!Stats.Dist.summary_opt} is the total-function path. *)
let summary_json = function
  | None -> "null"
  | Some (s : Stats.Dist.summary) ->
      Printf.sprintf
        "{\"n\":%d,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\
         \"p99\":%s,\"p999\":%s}"
        s.Stats.Dist.s_n (jfloat s.Stats.Dist.s_mean)
        (jfloat s.Stats.Dist.s_min) (jfloat s.Stats.Dist.s_max)
        (jfloat s.Stats.Dist.s_p50) (jfloat s.Stats.Dist.s_p95)
        (jfloat s.Stats.Dist.s_p99) (jfloat s.Stats.Dist.s_p999)

let breakdown_json b =
  Printf.sprintf
    "{\"queue_wait\":%s,\"wire\":%s,\"retransmit\":%s,\"execute\":%s,\
     \"flush_wait\":%s}"
    (summary_json b.b_queue_wait)
    (summary_json b.b_wire)
    (summary_json b.b_retransmit)
    (summary_json b.b_execute)
    (summary_json b.b_flush_wait)

let memory_json m =
  Printf.sprintf
    "{\"chan_live\":%d,\"chan_allocated\":%d,\"class_live\":%d,\
     \"class_allocated\":%d,\"done_reqs\":%d,\"code_cache\":%d,\
     \"fetch_cache\":%d,\"held_imports\":%d,\"ids_reclaimed\":%d,\
     \"leases_expired\":%d,\"lease_refreshes\":%d,\"stale_refs\":%d,\
     \"done_reqs_pruned\":%d,\"code_cache_evictions\":%d,\
     \"held_imports_dropped\":%d,\"gc_minor_words\":%s,\
     \"gc_major_words\":%s,\"gc_heap_words\":%d}"
    m.mem_chan_live m.mem_chan_allocated m.mem_class_live
    m.mem_class_allocated m.mem_done_reqs m.mem_code_cache m.mem_fetch_cache
    m.mem_held_imports m.mem_ids_reclaimed m.mem_leases_expired
    m.mem_lease_refreshes m.mem_stale_refs m.mem_done_pruned
    m.mem_cache_evictions m.mem_held_dropped
    (jfloat m.mem_gc_minor_words)
    (jfloat m.mem_gc_major_words)
    m.mem_gc_heap_words

(* The parallel runtime's merge target: shard-confined accumulators
   become one flat JSON object here, after every domain has joined —
   the explicit end-of-run merge the sharded engine is allowed. *)

let shard_stat_json (s : Par_runner.shard_stat) =
  Printf.sprintf
    "{\"shard\":%d,\"sites\":%d,\"events\":%d,\"virtual_ns\":%d,\
     \"packets\":%d,\"same_node_fast\":%d,\"handoffs_in\":%d,\
     \"ring_pushed\":%d,\"ring_popped\":%d,\"ring_hiwater\":%d,\
     \"parks\":%d,\"drains\":%d,\"weight\":%s}"
    s.Par_runner.ss_shard s.Par_runner.ss_sites s.Par_runner.ss_events
    s.Par_runner.ss_virtual_ns s.Par_runner.ss_packets
    s.Par_runner.ss_same_node s.Par_runner.ss_handoffs_in
    s.Par_runner.ss_ring_pushed s.Par_runner.ss_ring_popped
    s.Par_runner.ss_ring_hiwater s.Par_runner.ss_parks s.Par_runner.ss_drains
    (jfloat s.Par_runner.ss_weight)

let shard_registries (r : Par_runner.result) =
  List.map
    (fun s -> s.Par_runner.ss_stats)
    (Array.to_list r.Par_runner.shard_stats)

(* The export registry of a parallel run: the shards' registries
   merged, then the counts the engine keeps outside them — ring
   traffic and occupancy (the rings' own atomics), parks (the
   skeleton's) and the placement weights. *)
let par_metrics (r : Par_runner.result) =
  let m = Stats.create () in
  List.iter (fun s -> Stats.merge_into ~into:m s) (shard_registries r);
  let sum f =
    Array.fold_left (fun acc s -> acc + f s) 0 r.Par_runner.shard_stats
  in
  List.iter
    (fun (name, v) -> Stats.Counter.add (Stats.counter m name) v)
    [ ("ring_pushed", r.Par_runner.ring_pushed);
      ("ring_popped", r.Par_runner.ring_popped);
      ("ring_hiwater", sum (fun s -> s.Par_runner.ss_ring_hiwater));
      ("parks", r.Par_runner.parks);
      ("placement_weight",
        sum (fun s -> int_of_float (Float.round s.Par_runner.ss_weight))) ];
  m

let par_json (r : Par_runner.result) =
  (* the parallel latency breakdown: site-side components pooled over
     every shard's sites, and the cross-domain handoff latency pooled
     over the shards *)
  let breakdown =
    Printf.sprintf
      "{\"queue_wait\":%s,\"execute\":%s,\"handoff\":%s}"
      (summary_json (pooled "queue_wait_ns" r.Par_runner.sites))
      (summary_json (pooled "execute_ns" r.Par_runner.sites))
      (summary_json (pool "handoff_lat_ns" (shard_registries r)))
  in
  Printf.sprintf
    "{\"engine\":\"parallel\",\"domains\":%d,\"virtual_ns\":%d,\
     \"sim_events\":%d,\"packets\":%d,\"bytes\":%d,\"same_node_fast\":%d,\
     \"handoffs\":%d,\"ring_pushed\":%d,\"ring_popped\":%d,\
     \"ring_batch_fill_mean\":%s,\"parks\":%d,\
     \"instructions\":%d,\"wall_ns\":%d,\"dead_letters\":%d,\
     \"migrations\":%d,\"migration_ns\":%d,\"forwarded_envelopes\":%d,\
     \"sites_per_shard\":%s,\"placement_weights\":%s,\"node_weights\":%s,\
     \"clean\":%b,\"timed_out\":%b,\
     \"latency_breakdown\":%s,\"shards\":%s,\"outputs\":%s,\
     \"suspected_failures\":%s}"
    r.Par_runner.domains r.Par_runner.virtual_ns r.Par_runner.events
    r.Par_runner.packets r.Par_runner.bytes r.Par_runner.same_node_fast
    r.Par_runner.handoffs r.Par_runner.ring_pushed r.Par_runner.ring_popped
    (jfloat r.Par_runner.ring_batch_fill_mean)
    r.Par_runner.parks r.Par_runner.instructions r.Par_runner.wall_ns
    r.Par_runner.dead_letters r.Par_runner.migrations
    r.Par_runner.migration_ns r.Par_runner.forwarded_envelopes
    (jlist string_of_int (Array.to_list r.Par_runner.sites_per_shard))
    (jlist jfloat (Array.to_list r.Par_runner.placement_weights))
    (jlist jfloat (Array.to_list r.Par_runner.node_weights))
    r.Par_runner.clean r.Par_runner.timed_out breakdown
    (jlist shard_stat_json (Array.to_list r.Par_runner.shard_stats))
    (jlist output_json r.Par_runner.outputs)
    (jlist
       (fun (ts, name) -> Printf.sprintf "{\"t\":%d,\"site\":%s}" ts (jstr name))
       r.Par_runner.suspected)

let to_json t =
  Printf.sprintf
    "{\"virtual_ns\":%d,\"sim_events\":%d,\"packets\":%d,\"bytes\":%d,\
     \"same_node_fast\":%d,\"frames_sent\":%d,\"batch_fill_mean\":%s,\
     \"acks_piggybacked\":%d,\"outputs\":%s,\"sites\":%s,\
     \"latency_breakdown\":%s,\"suspected_failures\":%s,\"memory\":%s}"
    t.virtual_ns t.sim_events t.packets t.bytes t.same_node_fast
    t.frames_sent (jfloat t.batch_fill_mean) t.acks_piggybacked
    (jlist output_json t.outputs)
    (jlist site_json t.sites)
    (breakdown_json t.breakdown)
    (jlist
       (fun (ts, name) -> Printf.sprintf "{\"t\":%d,\"site\":%s}" ts (jstr name))
       t.suspected_failures)
    (memory_json t.memory)
