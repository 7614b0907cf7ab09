module Heap = Tyco_support.Heap
module Prng = Tyco_support.Prng

type topology = {
  intra_node : Latency.t;
  cluster : Latency.t;
  external_ : Latency.t;
  external_ips : int list;
}

let default_topology =
  { intra_node = Latency.shared_memory;
    cluster = Latency.myrinet;
    external_ = Latency.fast_ethernet;
    external_ips = [] }

type partition = { p_a : int; p_b : int; p_from : int; p_until : int }

type fault_model = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_ns : int;
  partitions : partition list;
}

let no_faults =
  { drop = 0.; duplicate = 0.; reorder = 0.; reorder_ns = 0; partitions = [] }

type t = {
  mutable clock : int;
  queue : (unit -> unit) Heap.t;
  rng : Prng.t;
  topo : topology;
  faults : fault_model;
  mutable processed : int;
}

let create ?(topology = default_topology) ?(faults = no_faults) ~seed () =
  { clock = 0; queue = Heap.create (); rng = Prng.create seed;
    topo = topology; faults; processed = 0 }

let now t = t.clock
let prng t = t.rng
let topology t = t.topo
let faults t = t.faults

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Simnet.schedule: negative delay";
  Heap.push t.queue (t.clock + delay) action

let link t ~src_ip ~dst_ip =
  if src_ip = dst_ip then t.topo.intra_node
  else if List.mem src_ip t.topo.external_ips || List.mem dst_ip t.topo.external_ips
  then t.topo.external_
  else t.topo.cluster

let packet_delay t ~src_ip ~dst_ip ~bytes =
  Latency.transfer_ns (link t ~src_ip ~dst_ip) ~bytes

let partitioned t ~src_ip ~dst_ip =
  List.exists
    (fun p ->
      ((p.p_a = src_ip && p.p_b = dst_ip) || (p.p_a = dst_ip && p.p_b = src_ip))
      && p.p_from <= t.clock
      && t.clock < p.p_until)
    t.faults.partitions

type verdict = {
  v_delays : int list;
  v_dropped : int;
  v_duplicated : bool;
  v_reordered : int;
}

(* Whether a transmission on this link can be faulted at all.  The
   transport hot path uses this to skip the verdict record (and its
   delay list) entirely on clean links — the common case — without
   changing PRNG consumption: [fault_verdict] never consults the PRNG
   in exactly these situations. *)
let faulted_link t ~src_ip ~dst_ip =
  src_ip <> dst_ip && t.faults != no_faults

(* Intra-node traffic (shared memory) is exempt: the fault model
   describes the switch fabric, not a node's own backplane.  With
   [no_faults] the PRNG is never consulted, so fault-free runs keep
   the exact event interleavings of older seeds. *)
let fault_verdict t ~src_ip ~dst_ip ~base_delay =
  let fm = t.faults in
  let clean =
    { v_delays = [ base_delay ]; v_dropped = 0; v_duplicated = false;
      v_reordered = 0 }
  in
  if src_ip = dst_ip then clean
  else if fm == no_faults then clean
  else if partitioned t ~src_ip ~dst_ip then
    { clean with v_delays = []; v_dropped = 1 }
  else begin
    let duplicated = fm.duplicate > 0. && Prng.float t.rng 1.0 < fm.duplicate in
    let copies = if duplicated then 2 else 1 in
    let dropped = ref 0 and reordered = ref 0 in
    let delays = ref [] in
    for _ = 1 to copies do
      if fm.drop > 0. && Prng.float t.rng 1.0 < fm.drop then incr dropped
      else begin
        let extra =
          if
            fm.reorder > 0. && fm.reorder_ns > 0
            && Prng.float t.rng 1.0 < fm.reorder
          then begin
            incr reordered;
            1 + Prng.int t.rng fm.reorder_ns
          end
          else 0
        in
        delays := (base_delay + extra) :: !delays
      end
    done;
    { v_delays = List.rev !delays; v_dropped = !dropped;
      v_duplicated = duplicated; v_reordered = !reordered }
  end

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, action) ->
      (* The clock never goes backwards: events scheduled in the past
         (impossible via [schedule]) would otherwise corrupt causality. *)
      t.clock <- max t.clock time;
      t.processed <- t.processed + 1;
      action ();
      true

let run t ?(max_events = 10_000_000) () =
  let start = t.processed in
  let rec go () =
    match Heap.peek_key t.queue with
    | None -> ()
    | Some _ ->
        (* only a budget exhausted with work still pending is a
           livelock; draining exactly [max_events] events is fine *)
        if t.processed - start >= max_events then
          failwith
            (Printf.sprintf "Simnet.run: exceeded %d events (livelock?)"
               max_events);
        ignore (step t);
        go ()
  in
  go ();
  t.processed - start

let events_processed t = t.processed
let next_time t = Heap.peek_key t.queue
let pending t = Heap.length t.queue
