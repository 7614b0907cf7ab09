module Dq = Tyco_support.Dq
module Stats = Tyco_support.Stats
module Netref = Tyco_support.Netref
module Trace = Tyco_support.Trace
module Lru = Tyco_support.Lru
module Heap = Tyco_support.Heap
module Block = Tyco_compiler.Block
module Bytecode = Tyco_compiler.Bytecode
module Link = Tyco_compiler.Link
module Value = Tyco_vm.Value
module Machine = Tyco_vm.Machine
module Export_table = Tyco_net.Export_table
module Packet = Tyco_net.Packet

module Rtti = Tyco_types.Rtti

exception Protocol_error of string

let perr fmt = Format.kasprintf (fun m -> raise (Protocol_error m)) fmt

(* A packet named an identifier this site once issued and has since
   reclaimed.  Unlike [Protocol_error] (a violation typed programs
   never trigger), stale references are an expected consequence of
   lease reclamation racing in-flight traffic: the packet is dropped
   and the failure surfaced as a ["stale-ref"] output event. *)
exception Stale of string

let stale fmt = Format.kasprintf (fun m -> raise (Stale m)) fmt

(* Type descriptors for the dynamic half of the combined checking
   scheme (paper §7): what this site's exports promise, and what its
   imports locally require. *)
type annotations = {
  a_export_rtti : (string * Rtti.t) list;
  a_import_expect : ((string * string) * Rtti.t) list;
}

let no_annotations = { a_export_rtti = []; a_import_expect = [] }

(* End-to-end recovery of the request/reply protocols (FETCH, name
   service): a request left unanswered past its deadline is re-sent
   with exponential backoff; after [r_max_tries] sends the request
   fails gracefully instead of hanging. *)
type retry = {
  r_timeout_ns : int;
  r_backoff : float;
  r_max_tries : int;
}

let default_retry = { r_timeout_ns = 4_000_000; r_backoff = 2.0; r_max_tries = 6 }

(* Resource lifecycle: bounds on the state a site keeps on behalf of
   its peers.  All zeros (the default) reproduces the seed behaviour —
   exports and request records live forever. *)
type lifecycle = {
  lc_lease_ns : int;
  lc_refresh_ns : int;
  lc_code_cache : int;
}

let default_lifecycle =
  { lc_lease_ns = 0; lc_refresh_ns = 0; lc_code_cache = 256 }

(* What an outstanding request waits for: a FETCH the code of the class
   its reference names; an import the name service's answer for
   [site.name], to spawn block [cont] with it and the [captured]
   values. *)
type awaits =
  | Class of Netref.t
  | Import of {
      site : string;
      name : string;
      is_class : bool;
      cont : int;
      captured : Value.t list;
    }

type req = {
  rq_span : Trace.span; (* request's causal span, reused by retries *)
  mutable rq_tries : int;
  rq_awaits : awaits;
}

(* A fetched class and the last virtual time this site used it. *)
type cached = { cc_cls : Value.cls; mutable cc_used : int }

type t = {
  name : string;
  site_id : int;
  ip : int;
  send : Trace.span -> Packet.t -> unit;
  on_output : Output.event -> unit;
  annotations : annotations;
  tr : Trace.t;
  tr_on : bool; (* cached [Trace.enabled tr]; fixed at creation *)
  vm : Machine.t;
  entry : int;
  (* (packet, causal span, enqueue virtual time) — the span came over
     the wire (or the same-node fast path); the timestamp feeds the
     queue-wait half of the latency breakdown *)
  inbox : (Packet.t * Trace.span * int) Dq.t;
  (* export tables (paper: one per site, mapping local heap pointers to
     network references and back); each entry's lease expiry lives in
     its slot *)
  chan_exports : Value.chan Export_table.t;
  class_exports : Value.cls Export_table.t;
  (* (cls_group, cls_index) -> exported instances; a bucket holds one
     entry per distinct captured environment (compared physically) *)
  class_buckets : (int * int, (Value.cls * int) list) Hashtbl.t;
  lifecycle : lifecycle;
  (* cached [lc_lease_ns > 0] (the lifecycle is fixed at creation):
     every resolve/send-path lease hook branches on this one load and
     falls straight through when leases are disabled *)
  leases : bool;
  grant : int; (* lease an exporter grants per use: 2 x [lc_lease_ns] *)
  tick_period : int;
  done_horizon : int;
  mutable next_lifecycle : int; (* virtual time of the next tick *)
  (* foreign references used since the last tick where their exporter
     cannot see it (passed to another site, or instantiated from the
     fetch cache); the tick names them in [Prelease]s *)
  mutable marked : Netref.t list;
  (* FETCH protocol state *)
  fetch_cache : cached Netref.Tbl.t;
  (* with leases on, one entry per cached class, due when it would have
     gone [lc_lease_ns] unused *)
  cache_due : Netref.t Heap.t;
  fetch_pending : Value.t array list Netref.Tbl.t;
  (* outstanding FETCH and import requests, by request id *)
  reqs : (int, req) Hashtbl.t;
  (* requests already answered or abandoned: late duplicate replies
     (a retransmission artifact) are dropped instead of raising.
     [done_order] remembers completion times so entries older than the
     sender's retry horizon can be pruned. *)
  done_reqs : (int, unit) Hashtbl.t;
  done_order : (int * int) Dq.t; (* (req id, completion time), oldest first *)
  mutable next_req : int;
  (* request recovery; deadlines are armed only when the runtime
     provides a timer facility *)
  retry : retry;
  schedule : (delay:int -> (unit -> unit) -> unit) option;
  on_suspect : string -> unit;
  (* receiver-side linking caches: origin code key -> linked index;
     capacity-bounded, a miss re-fetches (the origin still has the
     code — only the mapping is evicted, not the linked program area) *)
  obj_code_cache : (int * int * int, int) Lru.t;
  grp_code_cache : (int * int * int, int) Lru.t;
  mutable inputs : int list; (* pending io!readi data, in order *)
  mutable alive : bool;
  stats : Stats.t;
  c_pk_in : Stats.Counter.t;
  c_pk_out : Stats.Counter.t;
  c_fetches : Stats.Counter.t;
  c_ships_in : Stats.Counter.t;
  c_links : Stats.Counter.t;
  c_retries : Stats.Counter.t;
  c_timeouts : Stats.Counter.t;
  c_stale_refs : Stats.Counter.t;
  c_leases_expired : Stats.Counter.t;
  c_ids_reclaimed : Stats.Counter.t;
  c_lease_refreshes : Stats.Counter.t;
  c_cache_evictions : Stats.Counter.t;
  c_done_pruned : Stats.Counter.t;
  c_held_dropped : Stats.Counter.t;
  d_queue_wait : Stats.Dist.t;
  d_execute : Stats.Dist.t;
}

let name t = t.name
let site_id t = t.site_id
let ip t = t.ip
let vm t = t.vm
let alive t = t.alive
let stats t = t.stats

(* How long an answered request's id stays in the dedup set: past every
   deadline the sender's retry schedule can produce (backoff deadlines
   plus the jitter bound, doubled for slack), a duplicate can no longer
   arrive as a first delivery. *)
let done_horizon_of (r : retry) =
  let jitter_max = (r.r_timeout_ns / 4) + 1 in
  let total = ref 0 in
  for tries = 1 to r.r_max_tries do
    total :=
      !total
      + int_of_float
          (float_of_int r.r_timeout_ns
          *. (r.r_backoff ** float_of_int (tries - 1)))
      + jitter_max
  done;
  2 * !total

let create ?(annotations = no_annotations) ?(inputs = [])
    ?(retry = default_retry) ?(lifecycle = default_lifecycle) ?schedule
    ?(on_suspect = fun _ -> ()) ?(trace = Trace.disabled) ~name ~site_id ~ip
    ~send ~on_output ~unit_ () =
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create ~name ~trace ~track:site_id area in
  Trace.register_track trace ~id:site_id ~name ();
  let stats = Machine.stats vm in
  let cache_cap = max 1 lifecycle.lc_code_cache in
  let leases = lifecycle.lc_lease_ns > 0 in
  let done_horizon = done_horizon_of retry in
  { name;
    site_id;
    ip;
    send;
    on_output;
    annotations;
    tr = trace;
    tr_on = Trace.enabled trace;
    vm;
    entry;
    inbox = Dq.create ();
    chan_exports = Export_table.create ();
    class_exports = Export_table.create ();
    class_buckets = Hashtbl.create 8;
    lifecycle;
    leases;
    grant = 2 * lifecycle.lc_lease_ns;
    (* the tick also sends refreshes, so it must run well within a
       lease period *)
    tick_period =
      (if not leases then max 1 (done_horizon / 4)
       else if lifecycle.lc_refresh_ns > 0 then lifecycle.lc_refresh_ns
       else max 1 (lifecycle.lc_lease_ns / 4));
    done_horizon;
    next_lifecycle = 0;
    marked = [];
    fetch_cache = Netref.Tbl.create 8;
    cache_due = Heap.create ();
    fetch_pending = Netref.Tbl.create 8;
    reqs = Hashtbl.create 8;
    done_reqs = Hashtbl.create 8;
    done_order = Dq.create ();
    next_req = 0;
    retry;
    schedule;
    on_suspect;
    obj_code_cache = Lru.create ~capacity:cache_cap;
    grp_code_cache = Lru.create ~capacity:cache_cap;
    inputs;
    alive = true;
    stats;
    c_pk_in = Stats.counter stats "packets_in";
    c_pk_out = Stats.counter stats "packets_out";
    c_fetches = Stats.counter stats "fetches";
    c_ships_in = Stats.counter stats "ships_in";
    c_links = Stats.counter stats "links";
    c_retries = Stats.counter stats "retries";
    c_timeouts = Stats.counter stats "timeouts";
    c_stale_refs = Stats.counter stats "stale_refs";
    c_leases_expired = Stats.counter stats "leases_expired";
    c_ids_reclaimed = Stats.counter stats "ids_reclaimed";
    c_lease_refreshes = Stats.counter stats "lease_refreshes";
    c_cache_evictions = Stats.counter stats "code_cache_evictions";
    c_done_pruned = Stats.counter stats "done_reqs_pruned";
    c_held_dropped = Stats.counter stats "held_imports_dropped";
    d_queue_wait = Stats.dist stats "queue_wait_ns";
    d_execute = Stats.dist stats "execute_ns" }

let fresh_req t =
  let r = t.next_req in
  t.next_req <- r + 1;
  r

(* Hand a packet to the daemon under causal span [ctx] (null when
   tracing is off).  The [Send] event is emitted here — on the sending
   site's track, at the site's current virtual clock — so the flow
   arrow to the matching [Deliver] starts where the cause lives. *)
let send t ~ctx p =
  Stats.Counter.incr t.c_pk_out;
  if t.tr_on then
    Trace.emit t.tr ~ts:(Machine.clock t.vm) ~track:t.site_id ~span:ctx
      (Trace.Send { pk = Packet.trace_pk p; bytes = Packet.byte_size p });
  t.send ctx p

(* The span a freshly-made packet travels under: a child of the thread
   (or delivery) that caused it. *)
let packet_span t ~parent =
  if t.tr_on then Trace.fresh_span t.tr ~parent
  else Trace.null_span

(* ------------------------------------------------------------------ *)
(* Lease bookkeeping.                                                  *)

(* A reference is renewed by the uses its exporter sees: the export
   itself, every inbound packet that resolves it, and every [Prelease]
   naming it.  Each sets the expiry to the exporter's clock plus
   [grant]. *)

let now_of t = Machine.clock t.vm

let renew_chan t heap_id =
  if t.leases then
    Export_table.renew t.chan_exports heap_id ~until:(now_of t + t.grant)

let renew_class t heap_id =
  if t.leases then
    Export_table.renew t.class_exports heap_id ~until:(now_of t + t.grant)

(* A use of a foreign reference its exporter cannot see: the next tick
   refreshes it.  Receiving a reference, sending to it and importing it
   mark nothing — the exporter either sees those or pinned the id. *)
let mark t (r : Netref.t) = if t.leases then t.marked <- r :: t.marked

let mark_done t req_id =
  Hashtbl.replace t.done_reqs req_id ();
  Dq.push_back t.done_order (req_id, now_of t)

(* ------------------------------------------------------------------ *)
(* The two-step reference translation.                                 *)

let export_chan t (c : Value.chan) : Netref.t =
  let heap_id = Export_table.export t.chan_exports ~uid:c.Value.ch_uid c in
  renew_chan t heap_id;
  Netref.make ~kind:Netref.Channel ~heap_id ~site_id:t.site_id ~ip:t.ip

let export_class t (c : Value.cls) : Netref.t =
  let key = (c.Value.cls_group, c.Value.cls_index) in
  let bucket =
    Option.value ~default:[] (Hashtbl.find_opt t.class_buckets key)
  in
  let heap_id =
    match
      List.find_opt
        (fun ((c', _) : Value.cls * int) -> c'.Value.cls_env == c.Value.cls_env)
        bucket
    with
    | Some (_, heap_id) -> heap_id
    | None ->
        (* the bucket dedups class exports; the allocation count is a
           uid no live entry shares *)
        let heap_id =
          Export_table.export t.class_exports
            ~uid:(Export_table.allocated t.class_exports) c
        in
        Hashtbl.replace t.class_buckets key ((c, heap_id) :: bucket);
        heap_id
  in
  renew_class t heap_id;
  Netref.make ~kind:Netref.Class ~heap_id ~site_id:t.site_id ~ip:t.ip

(* Outgoing: local heap values become network references (step one of
   the translation, performed by the sender). *)
let to_wire t (v : Value.t) : Packet.wvalue =
  match v with
  | Value.Vint n -> Packet.Wint n
  | Value.Vbool b -> Packet.Wbool b
  | Value.Vstr s -> Packet.Wstr s
  | Value.Vchan c -> Packet.Wref (export_chan t c)
  | Value.Vnetref r ->
      mark t r;
      Packet.Wref r
  | Value.Vclass c -> Packet.Wref (export_class t c)
  | Value.Vclassref r ->
      mark t r;
      Packet.Wref r

(* A reference to this site resolves through its export table, which
   renews the lease: the exporter sees this use. *)
let resolve_chan t heap_id =
  match Export_table.resolve t.chan_exports heap_id with
  | Some c ->
      renew_chan t heap_id;
      c
  | None ->
      if Export_table.was_allocated t.chan_exports heap_id then
        stale "reclaimed channel heap id %d" heap_id
      else perr "unknown local channel heap id %d" heap_id

let resolve_class t heap_id =
  match Export_table.resolve t.class_exports heap_id with
  | Some c ->
      renew_class t heap_id;
      c
  | None ->
      if Export_table.was_allocated t.class_exports heap_id then
        stale "reclaimed class heap id %d" heap_id
      else perr "unknown local class heap id %d" heap_id

(* Incoming: references bound to this site are resolved to heap
   pointers (step two, performed by the receiver).  A reference to an
   identifier this site reclaimed fails as {!Stale}, never as a silent
   resolution to the slot's new occupant (generation-packed ids make
   aliasing impossible). *)
let of_wire t (w : Packet.wvalue) : Value.t =
  match w with
  | Packet.Wint n -> Value.Vint n
  | Packet.Wbool b -> Value.Vbool b
  | Packet.Wstr s -> Value.Vstr s
  | Packet.Wref r when r.Netref.site_id = t.site_id && r.Netref.ip = t.ip -> (
      match r.Netref.kind with
      | Netref.Channel -> Value.Vchan (resolve_chan t r.Netref.heap_id)
      | Netref.Class -> Value.Vclass (resolve_class t r.Netref.heap_id))
  | Packet.Wref r -> (
      match r.Netref.kind with
      | Netref.Channel -> Value.Vnetref r
      | Netref.Class -> Value.Vclassref r)

let rtti_of_export t x =
  match List.assoc_opt x t.annotations.a_export_rtti with
  | Some d ->
      let enc = Tyco_support.Wire.encoder () in
      Rtti.encode enc d;
      Tyco_support.Wire.to_string enc
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Request deadlines (FETCH and name-service lookups).                 *)

let emit_failure t label detail =
  t.on_output { Output.site = t.name; label; args = [ Output.Ostr detail ] }

(* Deadline of the [tries]-th send: exponential backoff with a
   deterministic per-request jitter that desynchronizes retry bursts
   without consuming simulation randomness. *)
let rto t ~req_id ~tries =
  let r = t.retry in
  let base =
    int_of_float
      (float_of_int r.r_timeout_ns *. (r.r_backoff ** float_of_int (tries - 1)))
  in
  base + ((req_id * 7919 + tries * 104729) mod ((r.r_timeout_ns / 4) + 1))

(* Send (or re-send) a request, then arm its deadline. *)
let rec send_req t req_id rq =
  send t ~ctx:rq.rq_span
    (match rq.rq_awaits with
    | Class cls ->
        Packet.Pfetch_req
          { cls; req_id; requester_site = t.site_id; requester_ip = t.ip }
    | Import { site; name; is_class; _ } ->
        Packet.Pns_lookup
          { site_name = site; id_name = name; want_class = is_class; req_id;
            requester_site = t.site_id; requester_ip = t.ip });
  match t.schedule with
  | None -> ()
  | Some sched ->
      sched ~delay:(rto t ~req_id ~tries:rq.rq_tries) (fun () ->
          deadline t req_id)

(* A request still unanswered at its deadline is re-sent, or after
   [r_max_tries] sends given up: it fails as an output, and its
   exporter is suspected. *)
and deadline t req_id =
  if t.alive then
    match Hashtbl.find_opt t.reqs req_id with
    | None -> () (* answered in the meantime *)
    | Some rq when rq.rq_tries < t.retry.r_max_tries ->
        rq.rq_tries <- rq.rq_tries + 1;
        Stats.Counter.incr t.c_retries;
        send_req t req_id rq
    | Some rq ->
        Hashtbl.remove t.reqs req_id;
        mark_done t req_id;
        Stats.Counter.incr t.c_timeouts;
        let label, detail, suspect =
          match rq.rq_awaits with
          | Class r ->
              (* the instantiations parked on the class go with it *)
              Netref.Tbl.remove t.fetch_pending r;
              ( "fetch-failed",
                Format.asprintf "%a" Netref.pp r,
                Printf.sprintf "site#%d" r.Netref.site_id )
          | Import { site; name; _ } ->
              ("import-failed", Printf.sprintf "%s.%s" site name, site)
        in
        emit_failure t label detail;
        t.on_suspect suspect

let start_req t ~sp awaits =
  let req_id = fresh_req t in
  let rq =
    { rq_span = packet_span t ~parent:sp; rq_tries = 1; rq_awaits = awaits }
  in
  Hashtbl.replace t.reqs req_id rq;
  send_req t req_id rq

(* The request a reply answers, retired; [None] when no request of the
   reply's kind is outstanding under its id.  That is a late duplicate
   of a request answered or abandoned, which retransmission makes
   normal: with the dedup record pruned past the retry horizon, any id
   below the allocation watermark gets the same benefit of the doubt.
   Only an id this site never issued raises. *)
let answer t req_id ~fetch =
  match Hashtbl.find_opt t.reqs req_id with
  | Some { rq_awaits; _ }
    when fetch = (match rq_awaits with Class _ -> true | Import _ -> false) ->
      Hashtbl.remove t.reqs req_id;
      mark_done t req_id;
      Some rq_awaits
  | _ ->
      if not (Hashtbl.mem t.done_reqs req_id) && req_id >= t.next_req then
        perr "%s reply for unknown request %d"
          (if fetch then "fetch" else "name service")
          req_id;
      None

(* ------------------------------------------------------------------ *)
(* Outgoing remote operations (drained after each VM quantum).         *)

(* [sp] is the span of the thread that requested the instantiation. *)
let start_fetch t ~sp (r : Netref.t) (args : Value.t array) =
  match Netref.Tbl.find_opt t.fetch_cache r with
  | Some cc ->
      (* a local instantiation: the exporter cannot see this use *)
      mark t r;
      cc.cc_used <- now_of t;
      Machine.set_current_span t.vm sp;
      Machine.instantiate_args t.vm cc.cc_cls args
  | None ->
      let pending =
        Option.value ~default:[] (Netref.Tbl.find_opt t.fetch_pending r)
      in
      Netref.Tbl.replace t.fetch_pending r (args :: pending);
      if pending = [] then begin
        Stats.Counter.incr t.c_fetches;
        start_req t ~sp (Class r)
      end

(* [sp] is the span of the VM thread that pushed the op: every packet
   it causes travels as that span's child. *)
let handle_remote_op t (op : Machine.remote_op) (sp : Trace.span) =
  match op with
  | Machine.Rmsg (dst, label, args) ->
      send t ~ctx:(packet_span t ~parent:sp)
        (Packet.Pmsg
           { dst; label; args = List.map (to_wire t) (Array.to_list args) })
  | Machine.Robj (dst, obj) ->
      let unit_ = Link.snapshot (Machine.area t.vm) in
      let code_unit, mtable = Bytecode.extract_mtable unit_ obj.Value.obj_mtable in
      send t ~ctx:(packet_span t ~parent:sp)
        (Packet.Pobj
           { dst;
             code = Bytecode.unit_to_string code_unit;
             code_key = (t.ip, t.site_id, obj.Value.obj_mtable);
             mtable;
             env = List.map (to_wire t) (Array.to_list obj.Value.obj_env) })
  | Machine.Rfetch (r, args) -> start_fetch t ~sp r args
  | Machine.Rexport_name (x, chan) ->
      (* name-service registrations are pinned: the service hands the
         reference out indefinitely, so this site must keep honouring
         it *)
      let nref = export_chan t chan in
      Export_table.pin t.chan_exports nref.Netref.heap_id;
      send t ~ctx:(packet_span t ~parent:sp)
        (Packet.Pns_register
           { site_name = t.name; id_name = x; nref;
             rtti = rtti_of_export t x })
  | Machine.Rexport_class (x, cls) ->
      let nref = export_class t cls in
      Export_table.pin t.class_exports nref.Netref.heap_id;
      send t ~ctx:(packet_span t ~parent:sp)
        (Packet.Pns_register
           { site_name = t.name; id_name = x; nref;
             rtti = rtti_of_export t x })
  | Machine.Rimport { site; name; is_class; cont; captured } ->
      start_req t ~sp (Import { site; name; is_class; cont; captured })

(* ------------------------------------------------------------------ *)
(* Incoming packets.                                                   *)

let resolve_local_chan t (r : Netref.t) : Value.chan =
  if r.Netref.site_id <> t.site_id || r.Netref.ip <> t.ip then
    perr "packet for site %d delivered to site %d" r.Netref.site_id t.site_id;
  resolve_chan t r.Netref.heap_id

let link_once t ~ctx cache counter key code root_of =
  match Lru.find cache key with
  | Some linked -> linked
  | None ->
      let sub =
        try Bytecode.unit_of_string code
        with Tyco_support.Wire.Malformed m -> perr "malformed byte-code: %s" m
      in
      Stats.Counter.incr t.c_links;
      if t.tr_on then
        Trace.emit t.tr ~ts:(Machine.clock t.vm) ~track:t.site_id ~span:ctx
          (Trace.Link_code { bytes = String.length code });
      let offsets = Link.link (Machine.area t.vm) sub in
      let linked = root_of offsets in
      (match Lru.add cache key linked with
      | None -> ()
      | Some _ ->
          Stats.Counter.incr counter;
          if t.tr_on then
            Trace.emit t.tr ~ts:(Machine.clock t.vm) ~track:t.site_id ~span:ctx
              (Trace.Reclaim { rc = Trace.Rc_code_cache; n = 1 }));
      linked

(* [ctx] is the packet's span: everything its processing causes — the
   threads injections spawn, the reply a FETCH request triggers — is
   recorded as its descendant. *)
let handle_packet_inner t ~ctx (p : Packet.t) =
  Machine.set_current_span t.vm ctx;
  match p with
  | Packet.Pmsg { dst; label; args } ->
      Stats.Counter.incr t.c_ships_in;
      let chan = resolve_local_chan t dst in
      Machine.inject_msg t.vm chan label (List.map (of_wire t) args)
  | Packet.Pobj { dst; code; code_key; mtable; env } ->
      Stats.Counter.incr t.c_ships_in;
      let chan = resolve_local_chan t dst in
      let area_mt =
        link_once t ~ctx t.obj_code_cache t.c_cache_evictions code_key code
          (fun (o : Link.offsets) -> mtable + o.Link.mt_off)
      in
      let obj =
        { Value.obj_mtable = area_mt;
          obj_env = Array.of_list (List.map (of_wire t) env) }
      in
      if t.tr_on then
        Trace.emit t.tr ~ts:(Machine.clock t.vm) ~track:t.site_id ~span:ctx
          Trace.Obj_commit;
      Machine.inject_obj t.vm chan obj
  | Packet.Pfetch_req { cls; req_id; requester_site; requester_ip } ->
      if cls.Netref.kind <> Netref.Class then perr "fetch of a channel reference";
      let c = resolve_class t cls.Netref.heap_id in
      let unit_ = Link.snapshot (Machine.area t.vm) in
      let code_unit, group = Bytecode.extract_group unit_ c.Value.cls_group in
      let g = Link.group (Machine.area t.vm) c.Value.cls_group in
      let ncap = Array.length g.Block.grp_captures in
      let env_captures =
        List.init ncap (fun i -> to_wire t c.Value.cls_env.(i))
      in
      send t ~ctx:(packet_span t ~parent:ctx)
        (Packet.Pfetch_rep
           { req_id;
             dst_site = requester_site;
             dst_ip = requester_ip;
             code = Bytecode.unit_to_string code_unit;
             code_key = (t.ip, t.site_id, c.Value.cls_group);
             group;
             index = c.Value.cls_index;
             env_captures })
  | Packet.Pfetch_rep { req_id; code; code_key; group; index; env_captures; _ } -> (
      match answer t req_id ~fetch:true with
      | Some (Class nref) ->
          let area_grp =
            link_once t ~ctx t.grp_code_cache t.c_cache_evictions code_key code
              (fun (o : Link.offsets) -> group + o.Link.grp_off)
          in
          let g = Link.group (Machine.area t.vm) area_grp in
          let ncap = Array.length g.Block.grp_captures in
          let k = Array.length g.Block.grp_classes in
          if List.length env_captures <> ncap then
            perr "fetch reply capture arity mismatch";
          let shared = Array.make (ncap + k) (Value.Vint 0) in
          List.iteri (fun i w -> shared.(i) <- of_wire t w) env_captures;
          for i = 0 to k - 1 do
            shared.(ncap + i) <-
              Value.Vclass
                { Value.cls_group = area_grp; cls_index = i; cls_env = shared }
          done;
          if index < 0 || index >= k then
            perr "fetch reply class index out of range";
          let cls =
            match shared.(ncap + index) with
            | Value.Vclass c -> c
            | _ -> assert false
          in
          Netref.Tbl.replace t.fetch_cache nref
            { cc_cls = cls; cc_used = now_of t };
          if t.leases then
            Heap.push t.cache_due (now_of t + t.lifecycle.lc_lease_ns) nref;
          let pending =
            Option.value ~default:[] (Netref.Tbl.find_opt t.fetch_pending nref)
          in
          Netref.Tbl.remove t.fetch_pending nref;
          List.iter
            (fun args -> Machine.instantiate_args t.vm cls args)
            (List.rev pending)
      | Some (Import _) | None -> ())
  | Packet.Pns_reply { req_id; result; rtti; _ } -> (
      match answer t req_id ~fetch:false with
      | Some (Import { site; name; cont; captured; _ }) -> (
          match result with
          | None -> perr "name service reported unresolvable import"
          | Some r ->
              (* dynamic type check: the exporter's descriptor against
                 every local expectation for this identifier *)
              (if not (String.equal rtti "") then
                 let remote =
                   try Rtti.decode (Tyco_support.Wire.decoder rtti)
                   with Tyco_support.Wire.Malformed m ->
                     perr "malformed type descriptor: %s" m
                 in
                 List.iter
                   (fun (k, expect) ->
                     if k = (site, name) && not (Rtti.compatible expect remote)
                     then
                       perr
                         "type mismatch on import %s.%s: expected %s, \
                          exporter provides %s"
                         site name
                         (Format.asprintf "%a" Rtti.pp expect)
                         (Format.asprintf "%a" Rtti.pp remote))
                   t.annotations.a_import_expect);
              let v = of_wire t (Packet.Wref r) in
              Machine.spawn t.vm ~block:cont ~env:(v :: captured))
      | Some (Class _) | None -> ())
  | Packet.Prelease { chans; classes; _ } ->
      (* an importer used these where this site could not see it: renew
         whatever is still live (a refresh racing the reclamation sweep
         loses — the next use is a stale-ref, the documented failure
         mode) *)
      List.iter (renew_chan t) chans;
      List.iter (renew_class t) classes
  | Packet.Pns_register _ | Packet.Pns_lookup _ ->
      perr "name-service packet delivered to an ordinary site"

let handle_packet t ~ctx (p : Packet.t) =
  Stats.Counter.incr t.c_pk_in;
  try handle_packet_inner t ~ctx p
  with Stale detail ->
    Stats.Counter.incr t.c_stale_refs;
    if t.tr_on then
      Trace.emit t.tr ~ts:(Machine.clock t.vm) ~track:t.site_id ~span:ctx
        (Trace.Stale_ref { pk = Packet.trace_pk p });
    emit_failure t "stale-ref" detail

(* ------------------------------------------------------------------ *)
(* The lifecycle tick: reclamation and lease refresh.                  *)

let trace_reclaim t ~now rc n =
  if n > 0 && t.tr_on then
    Trace.emit t.tr ~ts:now ~track:t.site_id ~span:Trace.null_span
      (Trace.Reclaim { rc; n })

(* Account for [n] exports whose leases ran out. *)
let reclaimed t ~now rc n =
  if n > 0 then begin
    Stats.Counter.add t.c_leases_expired n;
    Stats.Counter.add t.c_ids_reclaimed n;
    trace_reclaim t ~now rc n
  end

let unbucket t id (c : Value.cls) =
  let key = (c.Value.cls_group, c.Value.cls_index) in
  match
    List.filter (fun (_, hid) -> hid <> id)
      (Option.value ~default:[] (Hashtbl.find_opt t.class_buckets key))
  with
  | [] -> Hashtbl.remove t.class_buckets key
  | rest -> Hashtbl.replace t.class_buckets key rest

(* Grouping order of marked references: exporter, then kind, then id. *)
let by_origin (a : Netref.t) (b : Netref.t) =
  compare
    (a.Netref.site_id, a.Netref.ip, a.Netref.kind, a.Netref.heap_id)
    (b.Netref.site_id, b.Netref.ip, b.Netref.kind, b.Netref.heap_id)

(* One [Prelease] per exporter, naming the (sorted, distinct) marked
   references it exported. *)
let rec send_refreshes t ~now = function
  | [] -> ()
  | (first : Netref.t) :: _ as refs ->
      let rec split chans classes = function
        | (r : Netref.t) :: rest
          when r.Netref.site_id = first.Netref.site_id
               && r.Netref.ip = first.Netref.ip -> (
            match r.Netref.kind with
            | Netref.Channel -> split (r.Netref.heap_id :: chans) classes rest
            | Netref.Class -> split chans (r.Netref.heap_id :: classes) rest)
        | rest -> (List.rev chans, List.rev classes, rest)
      in
      let chans, classes, rest = split [] [] refs in
      Stats.Counter.incr t.c_lease_refreshes;
      if t.tr_on then
        Trace.emit t.tr ~ts:now ~track:t.site_id ~span:Trace.null_span
          (Trace.Lease_refresh
             { chans = List.length chans; classes = List.length classes });
      send t ~ctx:(packet_span t ~parent:Trace.null_span)
        (Packet.Prelease
           { origin_site = first.Netref.site_id;
             origin_ip = first.Netref.ip; chans; classes });
      send_refreshes t ~now rest

(* Fetched classes unused for a lease period leave the fetch cache; the
   next instantiation fetches again. *)
let drop_unused_classes t ~now =
  let lease = t.lifecycle.lc_lease_ns in
  let dropped = ref 0 and scanning = ref true in
  while !scanning do
    match Heap.peek_key t.cache_due with
    | Some due when due <= now -> (
        match Heap.pop t.cache_due with
        | Some (_, r) -> (
            match Netref.Tbl.find_opt t.fetch_cache r with
            | Some cc when cc.cc_used + lease > now ->
                Heap.push t.cache_due (cc.cc_used + lease) r
            | _ ->
                Netref.Tbl.remove t.fetch_cache r;
                incr dropped)
        | None -> ())
    | _ -> scanning := false
  done;
  if !dropped > 0 then begin
    Stats.Counter.add t.c_held_dropped !dropped;
    trace_reclaim t ~now Trace.Rc_import_hold !dropped
  end

let lifecycle_tick t ~now =
  (* dedup records past the sender's retry horizon *)
  let pruned = ref 0 and scanning = ref true in
  while !scanning do
    match Dq.peek_front t.done_order with
    | Some (req_id, done_at) when done_at + t.done_horizon <= now ->
        ignore (Dq.pop_front t.done_order);
        Hashtbl.remove t.done_reqs req_id;
        incr pruned
    | _ -> scanning := false
  done;
  if !pruned > 0 then begin
    Stats.Counter.add t.c_done_pruned !pruned;
    trace_reclaim t ~now Trace.Rc_done_req !pruned
  end;
  if t.leases then begin
    (* exporter side: only the entries that fell due are visited *)
    reclaimed t ~now Trace.Rc_chan_export
      (Export_table.expire t.chan_exports ~now (fun _ _ -> ()));
    reclaimed t ~now Trace.Rc_class_export
      (Export_table.expire t.class_exports ~now (unbucket t));
    (* importer side: the references marked since the previous tick *)
    (match t.marked with
    | [] -> ()
    | marked ->
        t.marked <- [];
        send_refreshes t ~now (List.sort_uniq by_origin marked));
    drop_unused_classes t ~now
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let io_handler t label args =
  if String.equal label "readi" then
    (* input: reply on the argument channel with the next supplied
       integer; a starved read blocks silently (paper §5: the I/O port
       both receives data from and provides data to programs) *)
    match (args, t.inputs) with
    | [ Value.Vchan k ], v :: rest ->
        t.inputs <- rest;
        Machine.inject_msg t.vm k "val" [ Value.Vint v ]
    | [ Value.Vchan _ ], [] -> ()
    | _ -> perr "io!readi expects one local reply channel"
  else
    t.on_output
      { Output.site = t.name; label; args = List.map Output.of_vm_value args }

let start t =
  let io = Machine.builtin_chan t.vm "io" (io_handler t) in
  Machine.spawn_entry t.vm ~entry:t.entry ~io

let deliver ?(ctx = Trace.null_span) ?(now = 0) t p =
  if t.alive then Dq.push_back t.inbox (p, ctx, now)

let busy t =
  t.alive && (Machine.runnable t.vm || not (Dq.is_empty t.inbox))

let outstanding t = if t.alive then Hashtbl.length t.reqs else 0

(* Costs (virtual ns) of the non-VM work a site does in a quantum. *)
let packet_handling_cost = 800
let remote_op_cost = 600
let lifecycle_tick_cost = 300

let pump ?(now = 0) t ~quantum =
  if not t.alive then 0
  else begin
    let cost = ref 0 in
    let rec drain_inbox () =
      match Dq.pop_front t.inbox with
      | None -> ()
      | Some (p, ctx, enq) ->
          Machine.set_clock t.vm (now + !cost);
          Stats.Dist.add_int t.d_queue_wait (now + !cost - enq);
          cost := !cost + packet_handling_cost;
          handle_packet t ~ctx p;
          drain_inbox ()
    in
    drain_inbox ();
    Machine.set_clock t.vm (now + !cost);
    let _instrs, vm_cost = Machine.run t.vm ~budget:quantum in
    Stats.Dist.add_int t.d_execute vm_cost;
    cost := !cost + vm_cost;
    let rec drain_ops () =
      match Machine.pop_remote_traced t.vm with
      | None -> ()
      | Some (op, sp) ->
          cost := !cost + remote_op_cost;
          handle_remote_op t op sp;
          drain_ops ()
    in
    drain_ops ();
    (* lifecycle work piggybacks on quanta the site runs anyway — no
       self-rearming timers, so quiescence detection is untouched *)
    (let lnow = now + !cost in
     if lnow >= t.next_lifecycle then begin
       Machine.set_clock t.vm lnow;
       lifecycle_tick t ~now:lnow;
       cost := !cost + lifecycle_tick_cost;
       t.next_lifecycle <- lnow + t.tick_period
     end);
    !cost
  end

let kill t =
  t.alive <- false;
  Dq.clear t.inbox

(* ------------------------------------------------------------------ *)
(* Memory accounting (for reports and the soak benchmarks).            *)

type mem_stats = {
  m_chan_live : int;
  m_chan_allocated : int;
  m_chan_reclaimed : int;
  m_class_live : int;
  m_class_allocated : int;
  m_class_reclaimed : int;
  m_done_reqs : int;
  m_obj_cache : int;
  m_grp_cache : int;
  m_fetch_cache : int;
  m_held : int;
}

let memory t =
  { m_chan_live = Export_table.live t.chan_exports;
    m_chan_allocated = Export_table.allocated t.chan_exports;
    m_chan_reclaimed = Export_table.reclaimed t.chan_exports;
    m_class_live = Export_table.live t.class_exports;
    m_class_allocated = Export_table.allocated t.class_exports;
    m_class_reclaimed = Export_table.reclaimed t.class_exports;
    m_done_reqs = Hashtbl.length t.done_reqs;
    m_obj_cache = Lru.length t.obj_code_cache;
    m_grp_cache = Lru.length t.grp_code_cache;
    m_fetch_cache = Netref.Tbl.length t.fetch_cache;
    m_held =
      List.length (List.sort_uniq by_origin t.marked)
      + Heap.length t.cache_due }
