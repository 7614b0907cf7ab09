module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Stats = Tyco_support.Stats
module Prng = Tyco_support.Prng
module Trace = Tyco_support.Trace
module Dq = Tyco_support.Dq
module Netref = Tyco_support.Netref

(* The paper's first implementation uses a centralized name service;
   its stated future work is a distributed one "for reasons of both
   redundancy (for failure recovery) and performance".  [Replicated]
   keeps one replica per node: lookups are answered by the local
   replica (a shared-memory hop), registrations broadcast to all
   replicas over the cluster links. *)
type ns_mode = Centralized | Replicated

(* Daemon-level retransmission: an unacknowledged frame is re-sent
   under exponential backoff (jittered via the simulation PRNG) up to
   [max_attempts] times before the destination is suspected. *)
type retry_params = {
  rto_ns : int;
  rto_backoff : float;
  max_attempts : int;
}

let default_retry_params =
  { rto_ns = 300_000; rto_backoff = 2.0; max_attempts = 12 }

type config = {
  nodes : int;
  cores_per_node : int;
  quantum : int;
  topology : Simnet.topology;
  seed : int;
  ns_mode : ns_mode;
  ns_replicas : int;
  faults : Simnet.fault_model;
  reliable : bool;
  retry : retry_params;
  site_retry : Site.retry;
  tracing : bool;
  trace_capacity : int;
  packet_log_capacity : int;
  flush_max_packets : int;
  flush_deadline_ns : int;
  lease_ns : int;
  lease_refresh_ns : int;
  code_cache_capacity : int;
}

(* Flush defaults tuned by bench E16: a deadline of 0 virtual ns still
   coalesces everything a site emits within one scheduling event (the
   flush runs as a separate event at the same timestamp, after the
   current pump), so bursts batch fully while a lone packet is never
   delayed. *)
let default_config =
  { nodes = 4;
    cores_per_node = 2;
    quantum = 512;
    topology = Simnet.default_topology;
    seed = 42;
    ns_mode = Centralized;
    ns_replicas = 0;
    faults = Simnet.no_faults;
    reliable = false;
    retry = default_retry_params;
    site_retry = Site.default_retry;
    tracing = false;
    trace_capacity = 65536;
    packet_log_capacity = 4096;
    flush_max_packets = 16;
    flush_deadline_ns = 0;
    lease_ns = 0;
    lease_refresh_ns = 0;
    code_cache_capacity = Site.default_lifecycle.Site.lc_code_cache }

(* An outbox also flushes once it holds this many payload bytes.  A
   receiver holds a cumulative ack up to [ack_delay_ns] hoping to
   piggyback it on reverse traffic — well under [retry.rto_ns], so
   delaying acks never causes spurious retransmits. *)
let flush_max_bytes = 8192
let ack_delay_ns = 30_000

(* Per-(src, dst) transmit coalescing: packets headed for the same
   node wait here until a flush — by packet-count threshold, byte
   threshold, or deadline — turns them into one [Fbatch] frame. *)
type outbox = {
  ob_src_ip : int;
  ob_dst_ip : int;
  (* parallel buffers of queued packets, reused across flushes: they
     grow to the connection's burst high-water mark once and are never
     shrunk, so a steady sender enqueues with zero allocation *)
  mutable ob_pkts : Packet.t array;
  mutable ob_ctxs : Trace.span array;
  mutable ob_sizes : int array;   (* payload bytes *)
  mutable ob_enq_ts : int array;  (* enqueue timestamps *)
  mutable ob_count : int;
  mutable ob_bytes : int;
  mutable ob_flush_scheduled : bool;
}

(* One flushed batch: sent as one [Fbatch] frame and, in reliable
   mode, retransmitted whole (minus the cumulatively-acked prefix)
   until the peer's ack floor passes its last sequence number. *)
type bxmit = {
  bx_src_ip : int;
  bx_dst_ip : int;
  mutable bx_base_seq : int; (* seq of [bx_pkts.(bx_lo)] *)
  (* the flushed batch, snapshotted from the outbox; content is frozen,
     acked prefixes advance [bx_lo] instead of rebuilding a list *)
  bx_pkts : Packet.t array;
  bx_ctxs : Trace.span array;
  bx_sizes : int array; (* payload bytes; [||] unless reliable *)
  mutable bx_lo : int;
  mutable bx_payload_bytes : int; (* of the unacked suffix *)
  bx_span : Trace.span; (* the batch's fabric span, kept across retries *)
  mutable bx_attempts : int;
  mutable bx_done : bool; (* fully acked, or given up *)
}

(* Receiver-side delayed-ack state towards one peer: [ak_need] is set
   by every arriving data batch and cleared by whichever ack goes out
   first — the piggybacked floor on a reverse-direction batch, or the
   standalone [Fcum_ack] the timer sends. *)
type ack_state = { mutable ak_need : bool; mutable ak_armed : bool }

(* What the fabric carries to a node's daemon: a batch frame (one
   attempt at sending [bx], minus its acked prefix [lo]), a standalone
   cumulative ack, or a same-node packet whose node left before it
   landed.  A frame is data, so it can land on another cluster's
   fabric: that of the shard the node runs on. *)
type frame =
  | Batch of { bx : bxmit; base_seq : int; ack_floor : int; lo : int }
  | Ack of { src_ip : int; dst_ip : int; floor : int }
  | Moved of { ip : int; ctx : Trace.span; pkt : Packet.t }

let frame_dst = function
  | Batch { bx; _ } -> bx.bx_dst_ip
  | Ack { dst_ip; _ } -> dst_ip
  | Moved { ip; _ } -> ip

type t = {
  cfg : config;
  sim : Simnet.t;
  (* the books and transport every node's daemon shares *)
  host : Node.host;
  (* name-service replicas: node ips [0, replicas) serve one each (the
     centralized service is replica 0) *)
  replicas : int;
  node_arr : Node.t array;
  (* the nodes whose daemons run here: all of them, unless this is one
     shard of a parallel run *)
  attached : bool array;
  (* where a frame goes whose node is not attached here *)
  mutable depart : delay:int -> frame -> unit;
  by_name : (string, Site.t) Hashtbl.t;
  mutable site_list : Site.t list; (* reversed creation order *)
  mutable next_site_id : int;
  mutable in_flight : int;
  (* send-time packet log: a bounded ring (oldest dropped past
     [packet_log_capacity] — the unbounded list it replaces grew with
     every packet of a long run) *)
  plog : (int * Packet.t) Dq.t;
  mutable plog_dropped : int;
  tracer : Trace.t;
  tr_on : bool; (* cached [Trace.enabled tracer]; fixed at creation *)
  (* Same-node delivery latency (shared memory, zero payload bytes):
     constant for the whole run, precomputed so the same-node fast path
     never consults the link model per packet. *)
  loopback_delay : int;
  (* batching state *)
  outboxes : (int * int, outbox) Hashtbl.t;
  (* per-connection unacked batches, front = oldest.  Batches enter in
     contiguous sequence order and a cumulative ack acknowledges a
     prefix of the stream, so acks only ever touch a front segment:
     [apply_cum_ack] pops acked fronts in O(1) each instead of the
     O(queue) [List.filter] rebuild this deque replaces.  Timed-out
     batches are marked [bx_done] in place and popped lazily when they
     surface at the front. *)
  pending_batches : (int * int, bxmit Dq.t) Hashtbl.t;
  ack_states : (int * int, ack_state) Hashtbl.t;
  (* what the links count, in the registry the daemons count in too *)
  stats : Stats.t;
  c_packets : Stats.Counter.t; (* cross-node packets, at enqueue *)
  c_bytes : Stats.Counter.t; (* bytes of the frames put on the fabric *)
  c_drops : Stats.Counter.t;
  c_dupes : Stats.Counter.t;
  c_reorders : Stats.Counter.t;
  c_retries : Stats.Counter.t;
  c_dupes_suppressed : Stats.Counter.t;
  c_timeouts : Stats.Counter.t;
  c_acks : Stats.Counter.t;
  c_same_node : Stats.Counter.t;
  c_frames : Stats.Counter.t;
  c_acks_piggybacked : Stats.Counter.t;
  c_forwarded : Stats.Counter.t;
  d_lat_wire : Stats.Dist.t;
  d_lat_retransmit : Stats.Dist.t;
  d_batch_fill : Stats.Dist.t;
  d_flush_wait : Stats.Dist.t;
}

let sim t = t.sim
let config t = t.cfg
let virtual_time t = max (Simnet.now t.sim) (Node.busy_until t.host)
let site t name = Hashtbl.find t.by_name name
let sites t = List.rev t.site_list
let nodes t =
  List.filter (fun n -> t.attached.(Node.ip n)) (Array.to_list t.node_arr)
let outputs t = Node.outputs t.host
let output_events t = List.map snd (Node.outputs t.host)
let packets_sent t = Stats.Counter.value t.c_packets
let bytes_sent t = Stats.Counter.value t.c_bytes
let in_flight t = t.in_flight
let name_service_pending t =
  List.fold_left (fun acc n -> acc + Node.names_pending n) 0 (nodes t)
let suspected_failures t = Node.suspected t.host

let log_packet t p =
  (* capacity 0 disables the log: no ring churn and no virtual-clock
     read per packet — only the dropped count is maintained, as the
     push-then-evict sequence it replaces did *)
  if t.cfg.packet_log_capacity = 0 then
    t.plog_dropped <- t.plog_dropped + 1
  else begin
    Dq.push_back t.plog (Simnet.now t.sim, p);
    if Dq.length t.plog > t.cfg.packet_log_capacity then begin
      ignore (Dq.pop_front t.plog);
      t.plog_dropped <- t.plog_dropped + 1
    end
  end

let packet_trace t = Dq.to_list t.plog

let packet_trace_dropped t = t.plog_dropped
let tracer t = t.tracer
let stats t = t.stats
let dead_letters t = Node.dead_letters t.host
let same_node_fast t = Stats.Counter.value t.c_same_node
let frames_sent t = Stats.Counter.value t.c_frames
let acks_piggybacked t = Stats.Counter.value t.c_acks_piggybacked

let batch_fill_mean t =
  if Stats.Dist.count t.d_batch_fill = 0 then 0.
  else Stats.Dist.mean t.d_batch_fill

let node_of_ip t ip = t.node_arr.(ip)

let outbox_of t ~src_ip ~dst_ip =
  match Hashtbl.find_opt t.outboxes (src_ip, dst_ip) with
  | Some ob -> ob
  | None ->
      let ob =
        { ob_src_ip = src_ip; ob_dst_ip = dst_ip; ob_pkts = [||];
          ob_ctxs = [||]; ob_sizes = [||]; ob_enq_ts = [||];
          ob_count = 0; ob_bytes = 0; ob_flush_scheduled = false }
      in
      Hashtbl.add t.outboxes (src_ip, dst_ip) ob;
      ob

let ack_state_of t ~at_ip ~peer_ip =
  match Hashtbl.find_opt t.ack_states (at_ip, peer_ip) with
  | Some st -> st
  | None ->
      let st = { ak_need = false; ak_armed = false } in
      Hashtbl.add t.ack_states (at_ip, peer_ip) st;
      st

let pending_of t ~src_ip ~dst_ip =
  match Hashtbl.find_opt t.pending_batches (src_ip, dst_ip) with
  | Some q -> q
  | None ->
      let q = Dq.create () in
      Hashtbl.add t.pending_batches (src_ip, dst_ip) q;
      q

(* ------------------------------------------------------------------ *)
(* The links between the node daemons.                                 *)

(* One physical transmission over the fabric: rolls the fault dice and
   carries [f] once per surviving copy. *)
let rec transmit t ~src_ip ~dst_ip ~bytes f =
  let base = Simnet.packet_delay t.sim ~src_ip ~dst_ip ~bytes in
  Stats.Dist.add_int t.d_lat_wire base;
  if not (Simnet.faulted_link t.sim ~src_ip ~dst_ip) then
    (* clean link: exactly one copy at the base delay — no verdict
       record, no delay list, no PRNG consumption *)
    carry t ~delay:base f
  else begin
    let v = Simnet.fault_verdict t.sim ~src_ip ~dst_ip ~base_delay:base in
    Stats.Counter.add t.c_drops v.Simnet.v_dropped;
    if v.Simnet.v_duplicated then Stats.Counter.incr t.c_dupes;
    Stats.Counter.add t.c_reorders v.Simnet.v_reordered;
    List.iter (fun delay -> carry t ~delay f) v.Simnet.v_delays
  end

(* A frame lands [delay] virtual ns from now: here, when its node runs
   here, else wherever the engine runs that node. *)
and carry t ~delay f =
  if t.attached.(frame_dst f) then take_frame t ~delay f else t.depart ~delay f

and take_frame t ~delay f =
  t.in_flight <- t.in_flight + 1;
  Simnet.schedule t.sim ~delay (fun () ->
      t.in_flight <- t.in_flight - 1;
      arrive t f)

(* A frame lands at its node's daemon.  If the node left this cluster
   while the frame was in flight, the frame follows it. *)
and arrive t f =
  if not t.attached.(frame_dst f) then begin
    Stats.Counter.incr t.c_forwarded;
    t.depart ~delay:0 f
  end
  else
    match f with
    | Batch { bx; base_seq; ack_floor; lo } ->
        receive_batch t bx ~base_seq ~ack_floor ~lo
    | Ack { src_ip; dst_ip; floor } ->
        apply_cum_ack t ~at_ip:dst_ip ~peer_ip:src_ip ~floor
    | Moved { ip; ctx; pkt } -> deliver t ~at_ip:ip ~ctx pkt

and route_ip t ~src_ip (p : Packet.t) =
  match (t.cfg.ns_mode, p) with
  (* replicated service: consult the nearest replica — the local one
     when this node hosts a replica, otherwise the node (ip mod
     replicas) that hosts this node's home replica.  Replica indices
     and node ips must not be conflated: replica [r] lives on node ip
     [r], which is only every node when there are as many replicas as
     nodes. *)
  | Replicated, (Packet.Pns_register _ | Packet.Pns_lookup _) ->
      src_ip mod t.replicas
  | _ -> Packet.dst_ip p ~ns_ip:0

(* Every packet a daemon sends: it either stays on its node or waits
   in the outbox towards [dst_ip] — the only way a packet leaves its
   node. *)
and send_packet t ~src_ip ~dst_ip ~ctx (p : Packet.t) =
  if dst_ip = src_ip then begin
    (* Same-node fast path (the paper's same-node optimization): both
       endpoints share the node's memory, so the packet is handed to the
       destination inbox as-is — no wire encode/decode, no size
       accounting, and no frame/ack machinery even in reliable mode
       (loopback traffic is exempt from the fault model).  Only the
       shared-memory latency is charged.  [in_flight] is still
       maintained: quiescence detection counts these deliveries.  The
       causal span still travels — by reference, like the packet. *)
    Stats.Counter.incr t.c_same_node;
    log_packet t p;
    t.in_flight <- t.in_flight + 1;
    Simnet.schedule t.sim ~delay:t.loopback_delay (fun () ->
        t.in_flight <- t.in_flight - 1;
        if t.attached.(dst_ip) then
          deliver t ~at_ip:dst_ip ~ctx ~same_node:true p
        else arrive t (Moved { ip = dst_ip; ctx; pkt = p }))
  end
  else enqueue_outbox t ~src_ip ~dst_ip ~ctx p

(* ------------------------------------------------------------------ *)
(* The outbox path.

   Every cross-node packet is counted (["packets"], packet log)
   exactly once, here at enqueue; the flush then charges the fabric one
   frame, its bytes and one latency sample for the whole batch.
   [in_flight] covers outbox residency so quiescence detection cannot
   fire between enqueue and flush. *)

and enqueue_outbox t ~src_ip ~dst_ip ~ctx (p : Packet.t) =
  let ob = outbox_of t ~src_ip ~dst_ip in
  let bytes = Packet.byte_size p in
  Stats.Counter.incr t.c_packets;
  log_packet t p;
  t.in_flight <- t.in_flight + 1;
  let n = ob.ob_count in
  if n = Array.length ob.ob_pkts then begin
    let cap = max 8 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    ob.ob_pkts <- grow ob.ob_pkts p;
    ob.ob_ctxs <- grow ob.ob_ctxs Trace.null_span;
    ob.ob_sizes <- grow ob.ob_sizes 0;
    ob.ob_enq_ts <- grow ob.ob_enq_ts 0
  end;
  ob.ob_pkts.(n) <- p;
  ob.ob_ctxs.(n) <- ctx;
  ob.ob_sizes.(n) <- bytes;
  ob.ob_enq_ts.(n) <- Simnet.now t.sim;
  ob.ob_count <- n + 1;
  ob.ob_bytes <- ob.ob_bytes + bytes;
  if
    ob.ob_count >= t.cfg.flush_max_packets
    || ob.ob_bytes >= flush_max_bytes
  then flush_outbox t ob
  else if not ob.ob_flush_scheduled then begin
    ob.ob_flush_scheduled <- true;
    Simnet.schedule t.sim ~delay:t.cfg.flush_deadline_ns (fun () ->
        ob.ob_flush_scheduled <- false;
        flush_outbox t ob)
  end

and flush_outbox t ob =
  if ob.ob_count > 0 then begin
    let count = ob.ob_count in
    let reliable = t.cfg.reliable in
    (* snapshot the buffers (the outbox refills while the frame is in
       flight) — small arrays, the only per-flush allocation besides
       the batch record; only a partial ack needs the sizes *)
    let pkts = Array.sub ob.ob_pkts 0 count in
    let ctxs = Array.sub ob.ob_ctxs 0 count in
    let sizes = if reliable then Array.sub ob.ob_sizes 0 count else [||] in
    let payload_bytes = ob.ob_bytes in
    ob.ob_count <- 0;
    ob.ob_bytes <- 0;
    t.in_flight <- t.in_flight - count;
    let now = Simnet.now t.sim in
    for i = 0 to count - 1 do
      let wait = now - ob.ob_enq_ts.(i) in
      Stats.Dist.add_int t.d_flush_wait wait;
      if t.tr_on && wait > 0 then
        Trace.emit t.tracer ~ts:now ~track:Trace.fabric_track
          ~span:ctxs.(i)
          (Trace.Flush_wait { ns = wait })
    done;
    Stats.Dist.add_int t.d_batch_fill count;
    (* the batch consumes one sequence number per packet; they come out
       contiguous because this is the only consumer of the stream *)
    let src = node_of_ip t ob.ob_src_ip in
    let base_seq = Node.fresh_seq src ~dst_ip:ob.ob_dst_ip in
    for _ = 2 to count do
      ignore (Node.fresh_seq src ~dst_ip:ob.ob_dst_ip)
    done;
    let bx =
      { bx_src_ip = ob.ob_src_ip; bx_dst_ip = ob.ob_dst_ip;
        bx_base_seq = base_seq; bx_pkts = pkts; bx_ctxs = ctxs;
        bx_sizes = sizes; bx_lo = 0; bx_payload_bytes = payload_bytes;
        bx_span = Trace.fresh_span t.tracer ~parent:Trace.null_span;
        bx_attempts = 0; bx_done = false }
    in
    if reliable then
      Dq.push_back (pending_of t ~src_ip:ob.ob_src_ip ~dst_ip:ob.ob_dst_ip) bx;
    send_batch t bx
  end

(* The cumulative-ack floor a batch from [at_ip] to [peer_ip] carries:
   everything below it of [peer_ip]'s inbound stream has been
   delivered.  Carrying it satisfies any pending delayed ack, so the
   timer's standalone [Fcum_ack] is suppressed — a piggybacked ack. *)
and piggyback_floor t ~at_ip ~peer_ip =
  let st = ack_state_of t ~at_ip ~peer_ip in
  if st.ak_need then begin
    st.ak_need <- false;
    Stats.Counter.incr t.c_acks;
    Stats.Counter.incr t.c_acks_piggybacked
  end;
  Node.rx_floor (node_of_ip t at_ip) ~src_ip:peer_ip

(* Put a batch on the fabric as one [Fbatch] frame: the one place a
   data frame is charged and transmitted.  An unreliable frame goes
   once — the fault dice roll once for it, so a dropped frame loses the
   whole batch.  A reliable one piggybacks the ack floor and arms its
   retransmission. *)
and send_batch t (bx : bxmit) =
  bx.bx_attempts <- bx.bx_attempts + 1;
  if bx.bx_attempts > 1 then begin
    Stats.Counter.incr t.c_retries;
    if t.tr_on then
      Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
        ~span:bx.bx_span
        (Trace.Retransmit { attempt = bx.bx_attempts })
  end;
  (* snapshot what this attempt puts on the wire ([lo] and [base_seq]
     as of now): a later cumulative ack may trim the batch while copies
     of this frame are in flight *)
  let base_seq = bx.bx_base_seq in
  let lo = bx.bx_lo in
  let ack_floor =
    if t.cfg.reliable then
      piggyback_floor t ~at_ip:bx.bx_src_ip ~peer_ip:bx.bx_dst_ip
    else 0
  in
  let fbytes =
    Packet.batch_byte_size ~src_ip:bx.bx_src_ip ~base_seq ~ack_floor
      ~count:(Array.length bx.bx_pkts - lo)
      ~payload_bytes:bx.bx_payload_bytes
  in
  Stats.Counter.add t.c_bytes fbytes;
  Stats.Counter.incr t.c_frames;
  if t.tr_on && bx.bx_attempts = 1 then
    Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
      ~span:bx.bx_span
      (Trace.Send { pk = Trace.Kbatch; bytes = fbytes });
  transmit t ~src_ip:bx.bx_src_ip ~dst_ip:bx.bx_dst_ip ~bytes:fbytes
    (Batch { bx; base_seq; ack_floor; lo });
  if t.cfg.reliable then arm_retransmit t bx

(* Reliable mode: send [bx] again after an exponential, jittered
   backoff unless the peer's cumulative ack retires it first. *)
and arm_retransmit t (bx : bxmit) =
  let r = t.cfg.retry in
  let backoff =
    int_of_float
      (float_of_int r.rto_ns
      *. (r.rto_backoff ** float_of_int (bx.bx_attempts - 1)))
  in
  let jitter = Prng.int (Simnet.prng t.sim) ((r.rto_ns / 4) + 1) in
  Simnet.schedule t.sim ~delay:(backoff + jitter) (fun () ->
      if not bx.bx_done then
        if bx.bx_attempts >= r.max_attempts then begin
          (* mark in place — a timed-out batch can sit mid-queue, and
             removing it there would cost O(queue); it is popped lazily
             when it reaches the front (here, if it already is) *)
          bx.bx_done <- true;
          let pending =
            pending_of t ~src_ip:bx.bx_src_ip ~dst_ip:bx.bx_dst_ip
          in
          let popping = ref true in
          while !popping do
            match Dq.peek_front pending with
            | Some b when b.bx_done -> ignore (Dq.pop_front_exn pending)
            | _ -> popping := false
          done;
          Stats.Counter.incr t.c_timeouts;
          if t.tr_on then
            Trace.emit t.tracer ~ts:(Simnet.now t.sim)
              ~track:Trace.fabric_track ~span:bx.bx_span Trace.Timeout;
          Node.suspect t.host (Printf.sprintf "ip#%d" bx.bx_dst_ip);
          for i = bx.bx_lo to Array.length bx.bx_pkts - 1 do
            undeliverable t bx.bx_pkts.(i)
          done
        end
        else begin
          Stats.Dist.add_int t.d_lat_retransmit (backoff + jitter);
          send_batch t bx
        end)

(* A batch frame lands at the destination daemon.  In reliable mode it
   first takes the piggybacked floor (which acknowledges its own
   outbound stream towards the sender), admits each packet through the
   dedup window, and arms the delayed ack. *)
and receive_batch t (bx : bxmit) ~base_seq ~ack_floor ~lo =
  let src_ip = bx.bx_src_ip and dst_ip = bx.bx_dst_ip in
  let reliable = t.cfg.reliable in
  if reliable then
    apply_cum_ack t ~at_ip:dst_ip ~peer_ip:src_ip ~floor:ack_floor;
  if t.tr_on then
    Trace.emit t.tracer ~ts:(Simnet.now t.sim) ~track:Trace.fabric_track
      ~span:bx.bx_span
      (Trace.Deliver { pk = Trace.Kbatch; same_node = false });
  let dst = node_of_ip t dst_ip in
  for i = lo to Array.length bx.bx_pkts - 1 do
    if (not reliable) || Node.admit dst ~src_ip ~seq:(base_seq + i - lo) then
      deliver t ~at_ip:dst_ip ~ctx:bx.bx_ctxs.(i) bx.bx_pkts.(i)
    else Stats.Counter.incr t.c_dupes_suppressed
  done;
  if reliable then begin
    (* always (re)arm the delayed ack — even a frame of pure duplicates
       must be re-acked, since the sender evidently missed the last
       ack *)
    let st = ack_state_of t ~at_ip:dst_ip ~peer_ip:src_ip in
    st.ak_need <- true;
    if not st.ak_armed then begin
      st.ak_armed <- true;
      Simnet.schedule t.sim ~delay:ack_delay_ns (fun () ->
          st.ak_armed <- false;
          if st.ak_need then begin
            st.ak_need <- false;
            send_cum_ack t ~src_ip:dst_ip ~dst_ip:src_ip
          end)
    end
  end

and send_cum_ack t ~src_ip ~dst_ip =
  let ack_floor = Node.rx_floor (node_of_ip t src_ip) ~src_ip:dst_ip in
  Stats.Counter.incr t.c_acks;
  Stats.Counter.incr t.c_frames;
  let bytes =
    Packet.frame_byte_size (Packet.Fcum_ack { src_ip; ack_floor })
  in
  Stats.Counter.add t.c_bytes bytes;
  transmit t ~src_ip ~dst_ip ~bytes (Ack { src_ip; dst_ip; floor = ack_floor })

and apply_cum_ack t ~at_ip ~peer_ip ~floor =
  if floor > 0 then
    match Hashtbl.find_opt t.pending_batches (at_ip, peer_ip) with
    | None -> ()
    | Some pending ->
        (* Front-only processing.  The queue holds this connection's
           batches in contiguous sequence order and the floor acks a
           prefix of the stream, so only a front segment can be
           affected: pop fully-acked fronts (and timed-out ones
           surfacing there), trim the single batch that can straddle
           the floor, then stop — every batch behind it starts at or
           above the front's end, hence at or above the floor.  Cost is
           O(batches retired), not O(queue) per ack. *)
        let scanning = ref true in
        while !scanning do
          match Dq.peek_front pending with
          | None -> scanning := false
          | Some bx ->
              if bx.bx_done then ignore (Dq.pop_front_exn pending)
              else begin
                let count = Array.length bx.bx_pkts - bx.bx_lo in
                if floor >= bx.bx_base_seq + count then begin
                  bx.bx_done <- true;
                  if t.tr_on then
                    Trace.emit t.tracer ~ts:(Simnet.now t.sim)
                      ~track:Trace.fabric_track ~span:bx.bx_span Trace.Ack;
                  ignore (Dq.pop_front_exn pending)
                end
                else begin
                  if floor > bx.bx_base_seq then begin
                    (* cumulative partial ack: advance past the acked
                       prefix so retransmissions shrink as the floor
                       advances *)
                    for _ = 1 to floor - bx.bx_base_seq do
                      bx.bx_payload_bytes <-
                        bx.bx_payload_bytes - bx.bx_sizes.(bx.bx_lo);
                      bx.bx_lo <- bx.bx_lo + 1
                    done;
                    bx.bx_base_seq <- floor
                  end;
                  scanning := false
                end
              end
        done

and undeliverable t p =
  Node.record_output t.host
    { Output.site = "daemon";
      label = "undeliverable";
      args = [ Output.Ostr (Format.asprintf "%a" Packet.pp p) ] }

(* A packet arrives at node [at_ip]: its daemon takes it.  At a
   replicated name service, the exporter's home replica — the one its
   registration routes to — also sends a copy to every other replica
   (replica [r] is hosted by node ip [r]); a copy is not sent on. *)
and deliver t ~at_ip ?(ctx = Trace.null_span) ?(same_node = false) (p : Packet.t) =
  Node.deliver (node_of_ip t at_ip) ~ctx ~same_node p;
  match (t.cfg.ns_mode, p) with
  | Replicated, Packet.Pns_register { nref; _ }
    when at_ip = nref.Netref.ip mod t.replicas ->
      for other = 0 to t.replicas - 1 do
        if other <> at_ip then send_packet t ~src_ip:at_ip ~dst_ip:other ~ctx p
      done
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction and program loading.                                  *)

(* The lifecycle every site of the cluster is created with. *)
let site_lifecycle cfg =
  { Site.lc_lease_ns = cfg.lease_ns;
    lc_refresh_ns = cfg.lease_refresh_ns;
    lc_code_cache = cfg.code_cache_capacity;
    lc_done_horizon_ns = Site.default_lifecycle.Site.lc_done_horizon_ns }

(* Name-service replicas: node ips [0, replicas) serve one each. *)
let replicas_of cfg =
  match cfg.ns_mode with
  (* in centralized mode the service lives on node 0's address, as a
     well-known location every site knows in advance (paper §5) *)
  | Centralized -> 1
  (* replica [r] is hosted by node ip [r]; fewer replicas than nodes
     is allowed — nodes without one consult ip mod r *)
  | Replicated ->
      if cfg.ns_replicas <= 0 then cfg.nodes else min cfg.nodes cfg.ns_replicas

let make_nodes cfg =
  Array.init cfg.nodes (fun ip ->
      let n = Node.create ~node_id:ip ~ip ~cores:cfg.cores_per_node in
      if ip < replicas_of cfg then Node.serve_names n;
      n)

let shard config ~nodes ~index ~count =
  (* each shard draws from its own stream; shard 0's is the run seed's,
     so a one-shard run is the whole cluster's *)
  let seed =
    if index = 0 then config.seed
    else
      Int64.to_int (Prng.next (Prng.for_owner ~seed:config.seed ~owner:index))
      land max_int
  in
  let sim =
    Simnet.create ~topology:config.topology ~faults:config.faults ~seed ()
  in
  let stats = Stats.create () in
  (* registered one by one, so an export lists them in this order (the
     daemons' counts follow, from [Node.host]) *)
  let counter = Stats.counter stats and dist = Stats.dist stats in
  let c_packets = counter "packets" in
  let c_bytes = counter "bytes" in
  let c_same_node = counter "same_node_fast" in
  let c_frames = counter "frames" in
  let c_acks = counter "acks" in
  let c_acks_piggybacked = counter "acks_piggybacked" in
  let c_retries = counter "retries" in
  let c_timeouts = counter "timeouts" in
  let c_drops = counter "drops" in
  let c_dupes = counter "dupes" in
  let c_reorders = counter "reorders" in
  let c_dupes_suppressed = counter "dupes_suppressed" in
  let c_forwarded = counter "forwarded_envelopes" in
  let d_lat_wire = dist "wire_ns" in
  let d_lat_retransmit = dist "retransmit_ns" in
  let d_batch_fill = dist "batch_fill" in
  let d_flush_wait = dist "flush_wait_ns" in
  (* span ids strided by (index, count): unique across the shards of a
     run without a shared counter, and 1, 2, 3, ... for one shard *)
  let tracer =
    Trace.create ~capacity:config.trace_capacity ~span_base:index
      ~span_stride:count ~enabled:config.tracing ()
  in
  Trace.register_track tracer ~id:Trace.fabric_track ~name:"fabric" ();
  let host =
    (* request deadlines need virtual timers; only armed in reliable
       mode so the seed's park-forever semantics (and its tests) are
       untouched by default *)
    Node.host ~quantum:config.quantum ~retry:config.site_retry
      ~lifecycle:(site_lifecycle config) ~timers:config.reliable ~tracer
      ~stats ()
  in
  let t =
    { cfg = config;
      sim;
      host;
      replicas = replicas_of config;
      node_arr = nodes;
      attached = Array.make (Array.length nodes) false;
      depart =
        (fun ~delay:_ f ->
          invalid_arg
            (Printf.sprintf "Cluster: node %d is not attached" (frame_dst f)));
      by_name = Hashtbl.create 16;
      site_list = [];
      next_site_id = 0;
      in_flight = 0;
      plog = Dq.create ();
      plog_dropped = 0;
      tracer;
      tr_on = Trace.enabled tracer;
      loopback_delay = Simnet.packet_delay sim ~src_ip:0 ~dst_ip:0 ~bytes:0;
      outboxes = Hashtbl.create 16;
      pending_batches = Hashtbl.create 16;
      ack_states = Hashtbl.create 16;
      stats;
      c_packets; c_bytes; c_same_node; c_frames; c_acks; c_acks_piggybacked;
      c_retries; c_timeouts; c_drops; c_dupes; c_reorders;
      c_dupes_suppressed; c_forwarded;
      d_lat_wire; d_lat_retransmit; d_batch_fill; d_flush_wait }
  in
  Node.connect host
    { Node.send =
        (fun ~src_ip ~ctx p ->
          send_packet t ~src_ip ~dst_ip:(route_ip t ~src_ip p) ~ctx p);
      schedule = (fun ~delay f -> Simnet.schedule sim ~delay f);
      now = (fun () -> Simnet.now sim) };
  t

let attach t n =
  t.attached.(Node.ip n) <- true;
  Node.attach n t.host

(* The node's queued packets leave first, so nothing here touches its
   sequence numbers once it has gone. *)
let detach t n =
  let ip = Node.ip n in
  Hashtbl.iter
    (fun (src, _) ob -> if src = ip then flush_outbox t ob)
    t.outboxes;
  t.attached.(ip) <- false;
  Node.detach n

let on_depart t f = t.depart <- f

let create ?(config = default_config) () =
  let t = shard config ~nodes:(make_nodes config) ~index:0 ~count:1 in
  Array.iter (attach t) t.node_arr;
  t

let load ?placement ?(annotations = fun _ -> None) ?(inputs = fun _ -> [])
    t (units : (string * Tyco_compiler.Block.unit_) list) =
  let placed =
    Node.place ~who:"Cluster.load" ~nodes:(Array.length t.node_arr) ?placement
      ~taken:(Hashtbl.mem t.by_name) units
  in
  List.iter2
    (fun (name, unit_) node_idx ->
      let site_id = t.next_site_id in
      t.next_site_id <- site_id + 1;
      let site =
        Node.load_site t.node_arr.(node_idx) ?annotations:(annotations name)
          ~inputs:(inputs name) ~name ~site_id unit_
      in
      Hashtbl.replace t.by_name name site;
      t.site_list <- site :: t.site_list)
    units placed

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

let run ?max_events t = ignore (Simnet.run t.sim ?max_events ())

let run_until t ~time =
  let rec go () =
    match Simnet.next_time t.sim with
    | Some ts when ts <= time ->
        ignore (Simnet.step t.sim);
        go ()
    | Some _ | None -> ()
  in
  go ()

let quiescent t = Option.is_none (Simnet.next_time t.sim)

let kill_site t name ~at =
  let site = Hashtbl.find t.by_name name in
  let delay = max 0 (at - Simnet.now t.sim) in
  Simnet.schedule t.sim ~delay (fun () -> Site.kill site)

(* Test/experiment hook: push a raw packet into the fabric as if a
   site on [src_ip] had sent it. *)
let inject_packet t ~src_ip p =
  send_packet t ~src_ip ~dst_ip:(route_ip t ~src_ip p) ~ctx:Trace.null_span p
