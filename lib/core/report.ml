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
  b_handoff : Stats.Dist.summary option;
}

(* Resident protocol state summed over sites, plus lifetime
   reclamation counters — the evidence that a run's memory tracked its
   working set (flat live counts, growing reclaimed counts). *)
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
}

type engine =
  | Deterministic
  | Parallel of Par_runner.result
  | Tcp of Tcp_runner.result

type t = {
  engine : engine;
  virtual_ns : int;
  sim_events : int;
  packets : int;
  bytes : int;
  same_node_fast : int;
  frames_sent : int;
  batch_fill_mean : float;
  acks_piggybacked : int;
  dead_letters : int;
  outputs : (int * Output.event) list;
  sites : site_stats list;
  breakdown : breakdown;
  suspected_failures : (int * string) list;
  memory : memory;
  stats : Stats.t;
}

let site_stats site =
  let s = Site.stats site in
  let c = Stats.counter_value s in
  let d = Stats.dist s "thread_len" in
  { ss_name = Site.name site;
    ss_instructions = c "instructions";
    ss_threads = c "threads";
    ss_comm_local = c "comm_local";
    ss_packets_in = c "packets_in";
    ss_packets_out = c "packets_out";
    ss_fetches = c "fetches";
    ss_links = c "links";
    ss_thread_len_mean = Stats.Dist.mean d;
    ss_thread_len_p95 =
      (if Stats.Dist.count d = 0 then 0. else Stats.Dist.percentile d 0.95);
    ss_runq_depth_mean = Stats.Dist.mean (Stats.dist s "runq_depth") }

(* Pool one distribution across the sites' registries (queue-wait,
   execute): a fresh Dist that absorbs each one's.  The pool is an
   estimate past the reservoir cap, like its inputs. *)
let pooled name sites =
  let d = Stats.Dist.create name in
  List.iter
    (fun s -> Stats.Dist.absorb d (Stats.dist (Site.stats s) name))
    sites;
  Stats.Dist.summary_opt d

let memory_of_sites sites =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sites in
  let sumc name = sum (fun s -> Stats.counter_value (Site.stats s) name) in
  let m f = sum (fun s -> f (Site.memory s)) in
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
    mem_held_dropped = sumc "held_imports_dropped" }

(* The common part, from what every engine holds after its join.  The
   run's registry is only read: a name it never registered reads 0 or
   [None] and stays unregistered, so its export keeps the engine's own
   key set. *)
let build engine ~stats ~virtual_ns ~sim_events ~outputs ~sites ~suspected =
  let c = Stats.counter_value stats in
  let dist name =
    List.find_opt (fun d -> Stats.Dist.name d = name) (Stats.dists stats)
  in
  let summary name = Option.bind (dist name) Stats.Dist.summary_opt in
  { engine;
    virtual_ns;
    sim_events;
    packets = c "packets";
    bytes = c "bytes";
    same_node_fast = c "same_node_fast";
    frames_sent = c "frames";
    batch_fill_mean =
      Option.fold ~none:0. ~some:Stats.Dist.mean (dist "batch_fill");
    acks_piggybacked = c "acks_piggybacked";
    dead_letters = c "dead_letters";
    outputs;
    sites = List.map site_stats sites;
    breakdown =
      { b_queue_wait = pooled "queue_wait_ns" sites;
        b_wire = summary "wire_ns";
        b_retransmit = summary "retransmit_ns";
        b_execute = pooled "execute_ns" sites;
        b_flush_wait = summary "flush_wait_ns";
        b_handoff = summary "handoff_lat_ns" };
    suspected_failures = suspected;
    memory = memory_of_sites sites;
    stats }

let of_cluster cluster =
  build Deterministic ~stats:(Cluster.stats cluster)
    ~virtual_ns:(Cluster.virtual_time cluster)
    ~sim_events:(Tyco_net.Simnet.events_processed (Cluster.sim cluster))
    ~outputs:(Cluster.outputs cluster) ~sites:(Cluster.sites cluster)
    ~suspected:(Cluster.suspected_failures cluster)

let shard_sum f (r : Par_runner.result) =
  Array.fold_left (fun acc s -> acc + f s) 0 r.Par_runner.shard_stats

(* The run's registry: the shards' merged, then the counts the engine
   keeps outside them — ring traffic and occupancy (the rings' own
   atomics), parks (the skeleton's) and the placement weights. *)
let of_parallel (r : Par_runner.result) =
  let stats = Stats.create () in
  Array.iter
    (fun s -> Stats.merge_into ~into:stats s.Par_runner.ss_stats)
    r.Par_runner.shard_stats;
  List.iter
    (fun (name, v) -> Stats.Counter.add (Stats.counter stats name) v)
    [ ("ring_pushed", r.Par_runner.ring_pushed);
      ("ring_popped", r.Par_runner.ring_popped);
      ("ring_hiwater", shard_sum (fun s -> s.Par_runner.ss_ring_hiwater) r);
      ("parks", r.Par_runner.parks);
      ("placement_weight",
        shard_sum
          (fun s -> int_of_float (Float.round s.Par_runner.ss_weight))
          r) ];
  build (Parallel r) ~stats
    ~virtual_ns:
      (Array.fold_left
         (fun acc s -> max acc s.Par_runner.ss_virtual_ns)
         0 r.Par_runner.shard_stats)
    ~sim_events:(shard_sum (fun s -> s.Par_runner.ss_events) r)
    ~outputs:r.Par_runner.outputs ~sites:r.Par_runner.sites
    ~suspected:r.Par_runner.suspected

(* TCP's transport clock reads 0, so its sites' queue-wait samples are
   modelled handling costs, not waits: the report leaves them out. *)
let of_tcp (r : Tcp_runner.result) =
  let rep =
    build (Tcp r) ~stats:r.Tcp_runner.metrics ~virtual_ns:0 ~sim_events:0
      ~outputs:(List.map (fun e -> (0, e)) r.Tcp_runner.outputs)
      ~sites:r.Tcp_runner.sites ~suspected:r.Tcp_runner.suspected
  in
  { rep with breakdown = { rep.breakdown with b_queue_wait = None } }

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
     \"flush_wait\":%s,\"handoff\":%s}"
    (summary_json b.b_queue_wait)
    (summary_json b.b_wire)
    (summary_json b.b_retransmit)
    (summary_json b.b_execute)
    (summary_json b.b_flush_wait)
    (summary_json b.b_handoff)

let memory_json m =
  Printf.sprintf
    "{\"chan_live\":%d,\"chan_allocated\":%d,\"class_live\":%d,\
     \"class_allocated\":%d,\"done_reqs\":%d,\"code_cache\":%d,\
     \"fetch_cache\":%d,\"held_imports\":%d,\"ids_reclaimed\":%d,\
     \"leases_expired\":%d,\"lease_refreshes\":%d,\"stale_refs\":%d,\
     \"done_reqs_pruned\":%d,\"code_cache_evictions\":%d,\
     \"held_imports_dropped\":%d}"
    m.mem_chan_live m.mem_chan_allocated m.mem_class_live
    m.mem_class_allocated m.mem_done_reqs m.mem_code_cache m.mem_fetch_cache
    m.mem_held_imports m.mem_ids_reclaimed m.mem_leases_expired
    m.mem_lease_refreshes m.mem_stale_refs m.mem_done_pruned
    m.mem_cache_evictions m.mem_held_dropped

let instructions t =
  List.fold_left (fun acc s -> acc + s.ss_instructions) 0 t.sites

(* The engine's section: its result's own numbers, then what the
   report derived from the shard registries ([stats]) and the sites. *)
let section_json t =
  match t.engine with
  | Deterministic -> ""
  | Parallel r ->
      let c = Stats.counter_value t.stats in
      let per_shard f = jlist f (Array.to_list r.Par_runner.shard_stats) in
      let row (s : Par_runner.shard_stat) =
        let counted = Stats.counter_value s.Par_runner.ss_stats in
        Printf.sprintf
          "{\"shard\":%d,\"sites\":%d,\"events\":%d,\"virtual_ns\":%d,\
           \"packets\":%d,\"same_node_fast\":%d,\"handoffs_in\":%d,\
           \"ring_pushed\":%d,\"ring_popped\":%d,\"ring_hiwater\":%d,\
           \"parks\":%d,\"drains\":%d,\"weight\":%s}"
          s.Par_runner.ss_shard s.Par_runner.ss_sites s.Par_runner.ss_events
          s.Par_runner.ss_virtual_ns (counted "packets")
          (counted "same_node_fast") (counted "handoffs_in")
          s.Par_runner.ss_ring_pushed
          s.Par_runner.ss_ring_popped s.Par_runner.ss_ring_hiwater
          s.Par_runner.ss_parks s.Par_runner.ss_drains
          (jfloat s.Par_runner.ss_weight)
      in
      Printf.sprintf
        ",\"parallel\":{\"domains\":%d,\"handoffs\":%d,\"ring_pushed\":%d,\
         \"ring_popped\":%d,\"ring_batch_fill_mean\":%s,\"parks\":%d,\
         \"instructions\":%d,\"wall_ns\":%d,\"migrations\":%d,\
         \"migration_ns\":%d,\"forwarded_envelopes\":%d,\
         \"sites_per_shard\":%s,\"placement_weights\":%s,\
         \"node_weights\":%s,\"clean\":%b,\"timed_out\":%b,\"shards\":%s}"
        r.Par_runner.domains r.Par_runner.handoffs r.Par_runner.ring_pushed
        r.Par_runner.ring_popped
        (jfloat r.Par_runner.ring_batch_fill_mean)
        r.Par_runner.parks
        (instructions t)
        r.Par_runner.wall_ns (c "migrations") (c "migration_ns")
        (c "forwarded_envelopes")
        (per_shard (fun s -> string_of_int s.Par_runner.ss_sites))
        (per_shard (fun s -> jfloat s.Par_runner.ss_weight))
        (jlist jfloat (Array.to_list r.Par_runner.node_weights))
        r.Par_runner.clean r.Par_runner.timed_out (per_shard row)
  | Tcp r ->
      Printf.sprintf
        ",\"tcp\":{\"nodes\":%d,\"parks\":%d,\"wall_ns\":%d,\"timed_out\":%b}"
        r.Tcp_runner.nodes r.Tcp_runner.parks r.Tcp_runner.wall_ns
        r.Tcp_runner.timed_out

let engine_name = function
  | Deterministic -> "deterministic"
  | Parallel _ -> "parallel"
  | Tcp _ -> "tcp"

let to_json t =
  Printf.sprintf
    "{\"engine\":%s,\"virtual_ns\":%d,\"sim_events\":%d,\"packets\":%d,\
     \"bytes\":%d,\"same_node_fast\":%d,\"frames_sent\":%d,\
     \"batch_fill_mean\":%s,\"acks_piggybacked\":%d,\"dead_letters\":%d,\
     \"outputs\":%s,\"sites\":%s,\"latency_breakdown\":%s,\
     \"suspected_failures\":%s,\"memory\":%s%s}"
    (jstr (engine_name t.engine))
    t.virtual_ns t.sim_events t.packets t.bytes t.same_node_fast
    t.frames_sent (jfloat t.batch_fill_mean) t.acks_piggybacked
    t.dead_letters
    (jlist output_json t.outputs)
    (jlist site_json t.sites)
    (breakdown_json t.breakdown)
    (jlist
       (fun (ts, name) -> Printf.sprintf "{\"t\":%d,\"site\":%s}" ts (jstr name))
       t.suspected_failures)
    (memory_json t.memory)
    (section_json t)
