module Packet = Tyco_net.Packet
module Trace = Tyco_support.Trace
module Wire = Tyco_support.Wire
module Metrics = Tyco_support.Metrics

exception Node_failure of int * string

type result = {
  outputs : Output.event list;
  packets : int;
  wall_ns : int;
  timed_out : bool;
  parks : int;
  dead_letters : int;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length prefix per packet.  A peer's
   outgoing frames accumulate in one buffer and leave in a single
   write per loop iteration (a writev of the queued frames, without
   the iovec), so a burst of packets to one peer costs one syscall. *)

(* A per-connection byte buffer (rx reassembly and tx coalescing). *)
type conn_buf = { mutable data : Bytes.t; mutable len : int }

let buf_create () = { data = Bytes.create 4096; len = 0 }

let buf_reserve cb n =
  if cb.len + n > Bytes.length cb.data then begin
    let bigger = Bytes.create (max (2 * Bytes.length cb.data) (cb.len + n)) in
    Bytes.blit cb.data 0 bigger 0 cb.len;
    cb.data <- bigger
  end

let buf_append cb src n =
  buf_reserve cb n;
  Bytes.blit src 0 cb.data cb.len n;
  cb.len <- cb.len + n

(* The longest frame a peer may announce.  A longer length prefix is a
   protocol violation: the node fails instead of growing its reassembly
   buffer to whatever the prefix claims. *)
let max_frame_bytes = 1 lsl 24

(* Extract complete frames. *)
let buf_drain cb =
  let frames = ref [] in
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if cb.len - !pos >= 4 then begin
      let n =
        (Bytes.get_uint8 cb.data !pos lsl 24)
        lor (Bytes.get_uint8 cb.data (!pos + 1) lsl 16)
        lor (Bytes.get_uint8 cb.data (!pos + 2) lsl 8)
        lor Bytes.get_uint8 cb.data (!pos + 3)
      in
      if n > max_frame_bytes then
        failwith
          (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
             max_frame_bytes);
      if cb.len - !pos - 4 >= n then begin
        frames := Bytes.sub_string cb.data (!pos + 4) n :: !frames;
        pos := !pos + 4 + n
      end
      else continue_ := false
    end
    else continue_ := false
  done;
  if !pos > 0 then begin
    Bytes.blit cb.data !pos cb.data 0 (cb.len - !pos);
    cb.len <- cb.len - !pos
  end;
  List.rev !frames

(* ------------------------------------------------------------------ *)
(* Node state.                                                         *)

type node = {
  node_id : int;
  listen : Unix.file_descr;
  (* outgoing connections, by peer node id *)
  peers : (int, Unix.file_descr) Hashtbl.t;
  (* coalesced outgoing frames, by peer node id; flushed once per loop *)
  tx : (int, conn_buf) Hashtbl.t;
  (* node-local encoder, reused across every outgoing packet *)
  enc : Wire.enc;
  (* accepted incoming connections with reassembly buffers *)
  mutable accepted : (Unix.file_descr * conn_buf) list;
  (* this node's daemon: its sites and, on node 0, the name service *)
  daemon : Node.t;
  host : Node.host;
  mutable sites : Site.t list; (* pumped by the loop itself *)
  (* daemon work scheduled on this node — packets it addressed to
     itself, name-service replies — run by the loop; only touched by
     this node's domain *)
  deferred : (unit -> unit) Queue.t;
  idle : bool Atomic.t;
  (* read buffer, reused across iterations (was a per-iteration 8 KB
     allocation) *)
  scratch : Bytes.t;
  (* idle parks taken by this node's domain, read after join *)
  mutable parks : int;
  mutable error : exn option; (* what stopped this node, read after join *)
  (* node-confined metrics registry (the ad-hoc park/retry counters,
     folded): only this node's domain bumps it; merged after join *)
  mx : Metrics.t;
  m_parks : Metrics.counter;
  m_packets : Metrics.counter;
  m_bytes : Metrics.counter;
  m_retries : Metrics.counter; (* connect_with_retry backoff rounds *)
}

type shared = {
  base_port : int;
  in_flight : int Atomic.t;
  stop : bool Atomic.t;
  total_packets : int Atomic.t;
}

let connect_with_retry shared node peer =
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_loopback, shared.base_port + peer)
  in
  (* exponential backoff on refused connections (the peer's listener
     may not be up yet): 1 ms doubling to 50 ms, same ~5 s budget as
     the fixed-sleep loop it replaces but with far fewer wakeups *)
  let rec go tries delay =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        Unix.set_nonblock fd;
        fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Unix.close fd;
        Metrics.incr node.m_retries;
        Unix.sleepf delay;
        go (tries - 1) (Float.min 0.05 (delay *. 2.))
  in
  go 200 0.001

let peer_fd shared node peer =
  match Hashtbl.find_opt node.peers peer with
  | Some fd -> fd
  | None ->
      let fd = connect_with_retry shared node peer in
      Hashtbl.add node.peers peer fd;
      fd

let tx_buf_of node peer =
  match Hashtbl.find_opt node.tx peer with
  | Some tx -> tx
  | None ->
      let tx = buf_create () in
      Hashtbl.add node.tx peer tx;
      tx

(* Queue one packet for [peer]: encode (into the node's reused
   encoder — no per-packet buffer churn) straight into the peer's tx
   buffer behind its length prefix.  The bytes leave in [flush_tx]. *)
let send_to shared node peer ~ctx (p : Packet.t) =
  Atomic.incr shared.in_flight;
  Atomic.incr shared.total_packets;
  let tx = tx_buf_of node peer in
  (* the trace span rides the versioned trailer — an untraced run
     produces bytes identical to [Packet.to_string] *)
  Wire.reset node.enc;
  Packet.encode_traced ~ctx node.enc p;
  let n = Wire.size node.enc in
  buf_reserve tx (4 + n);
  Bytes.set_uint8 tx.data tx.len ((n lsr 24) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 1) ((n lsr 16) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 2) ((n lsr 8) land 0xff);
  Bytes.set_uint8 tx.data (tx.len + 3) (n land 0xff);
  Wire.blit_to_bytes node.enc tx.data (tx.len + 4);
  tx.len <- tx.len + 4 + n;
  Metrics.incr node.m_packets;
  Metrics.add node.m_bytes n

let flush_tx shared node =
  Hashtbl.iter
    (fun peer tx ->
      if tx.len > 0 then begin
        let fd = peer_fd shared node peer in
        (* loopback writes of small buffers complete immediately; loop
           for completeness *)
        let rec write_all off =
          if off < tx.len then begin
            match Unix.write fd tx.data off (tx.len - off) with
            | n -> write_all (off + n)
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
                Domain.cpu_relax ();
                write_all off
          end
        in
        write_all 0;
        tx.len <- 0
      end)
    node.tx

(* ------------------------------------------------------------------ *)
(* Per-node event loop.                                                *)

(* The daemon's transport: a packet for this node stays in memory, any
   other leaves over its peer's socket.  There is no virtual clock, so
   scheduled work runs on the next pass of the loop. *)
let transport shared node =
  { Node.send =
      (fun ~src_ip:_ ~ctx p ->
        let dst = Packet.dst_ip p ~ns_ip:0 in
        if dst = node.node_id then
          Queue.push
            (fun () -> Node.deliver node.daemon ~ctx ~same_node:false p)
            node.deferred
        else send_to shared node dst ~ctx p);
    schedule = (fun ~delay:_ f -> Queue.push f node.deferred);
    now = (fun () -> 0) }

(* Idle parking: instead of a fixed 0.5 ms sleep per quiet iteration,
   the loop blocks in [select] on everything that can make work appear
   from outside — the listener (new connections) and the accepted
   sockets (data).  The timeout doubles from [park_min] to [park_max]
   across consecutive quiet iterations and resets on any work, so a
   busy node never parks and a quiet one converges to a few wakeups
   per second; inbound bytes end the park immediately (the wakeup
   half), where the fixed sleep always paid its full latency. *)
let park_min = 5e-5 (* 50 us *)
let park_max = 5e-3 (* 5 ms *)

let park node ~timeout =
  node.parks <- node.parks + 1;
  Metrics.incr node.m_parks;
  let fds = node.listen :: List.map fst node.accepted in
  match Unix.select fds [] [] timeout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let serve shared node =
  let backoff = ref park_min in
  while not (Atomic.get shared.stop) do
    let worked = ref false in
    (* accept new connections *)
    (match Unix.accept node.listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        node.accepted <- (fd, buf_create ()) :: node.accepted;
        worked := true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    (* read from peers *)
    let scratch = node.scratch in
    List.iter
      (fun (fd, cb) ->
        match Unix.read fd scratch 0 (Bytes.length scratch) with
        | 0 -> () (* peer closed; keep buffer for leftovers *)
        | n ->
            buf_append cb scratch n;
            let frames = buf_drain cb in
            if frames <> [] then begin
              (* busy before the frames leave [in_flight], so no
                 coordinator scan sees this node idle while it holds
                 delivered but unprocessed work *)
              Atomic.set node.idle false;
              worked := true
            end;
            List.iter
              (fun payload ->
                Atomic.decr shared.in_flight;
                let p, sp = Packet.of_string_traced payload in
                Node.deliver node.daemon
                  ~ctx:(Option.value ~default:Trace.null_span sp)
                  ~same_node:false p)
              frames
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ())
      node.accepted;
    (* the daemon's deferred work (self-addressed packets, name-service
       replies) *)
    while not (Queue.is_empty node.deferred) do
      worked := true;
      (Queue.pop node.deferred) ()
    done;
    (* run the sites *)
    List.iter
      (fun s ->
        if Site.busy s then begin
          worked := true;
          ignore (Site.pump s ~quantum:2048)
        end)
      node.sites;
    (* everything the sites and the daemon queued this iteration leaves
       now, one write per peer *)
    flush_tx shared node;
    let busy =
      List.exists (fun s -> Site.busy s || Site.outstanding s > 0) node.sites
      || not (Queue.is_empty node.deferred)
      || Hashtbl.fold (fun _ tx acc -> acc || tx.len > 0) node.tx false
    in
    Atomic.set node.idle (not busy);
    if !worked then backoff := park_min
    else begin
      park node ~timeout:!backoff;
      backoff := Float.min park_max (!backoff *. 2.)
    end
  done

(* The node's domain: whatever escapes the loop stops the whole run and
   is kept for the coordinator to re-raise at join. *)
let node_loop shared node () =
  (try serve shared node
   with exn ->
     node.error <- Some exn;
     Atomic.set shared.stop true);
  (* teardown *)
  Hashtbl.iter (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ()) node.peers;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    node.accepted;
  (try Unix.close node.listen with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Setup and coordination.                                             *)

(* The default listening ports [base, base + nodes) stay in
   [20000, 32768): a per-process offset spreads concurrent runs, and
   no port reaches Linux's ephemeral range (32768 and up), where a
   listener can collide with an outgoing connection's local port and
   fail with EADDRINUSE. *)
let default_base_port ~pid ~nodes =
  let span = 32768 - 20000 - nodes in
  if span < 1 then
    invalid_arg "Tcp_runner: too many nodes for the default port range";
  20000 + (pid mod span)

let run ?(nodes = 4) ?base_port ?(inputs = fun _ -> [])
    ?(timeout_ms = 10_000) ?(metrics = false) units =
  let base_port =
    match base_port with
    | Some p -> p
    | None -> default_base_port ~pid:(Unix.getpid ()) ~nodes
  in
  let shared =
    { base_port;
      in_flight = Atomic.make 0;
      stop = Atomic.make false;
      total_packets = Atomic.make 0 }
  in
  let mk_node node_id =
    let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen Unix.SO_REUSEADDR true;
    Unix.bind listen
      (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + node_id));
    Unix.listen listen 16;
    Unix.set_nonblock listen;
    let mx =
      if metrics then
        Metrics.create ~label:(Printf.sprintf "node%d" node_id) ~enabled:true ()
      else Metrics.disabled
    in
    let daemon = Node.create ~node_id ~ip:node_id ~cores:1 in
    let host = Node.host ~metrics:mx () in
    let node =
      { node_id;
        listen;
        peers = Hashtbl.create 8;
        tx = Hashtbl.create 8;
        enc = Wire.encoder ~size:256 ();
        accepted = [];
        daemon;
        host;
        sites = [];
        deferred = Queue.create ();
        idle = Atomic.make true;
        scratch = Bytes.create 8192;
        parks = 0;
        error = None;
        mx;
      m_parks = Metrics.counter mx "parks";
      m_packets = Metrics.counter mx "packets";
      m_bytes = Metrics.counter mx "bytes";
      m_retries = Metrics.counter mx "connect_retries" }
    in
    Node.connect host (transport shared node);
    Node.attach daemon host;
    if node_id = 0 then Node.serve_names daemon;
    node
  in
  let node_arr = Array.init nodes mk_node in
  (* place sites round-robin, as the simulated cluster does *)
  List.iteri
    (fun site_id ((name, unit_), i) ->
      let node = node_arr.(i) in
      let site =
        Node.load_site node.daemon ~inputs:(inputs name) ~name ~site_id unit_
      in
      node.sites <- site :: node.sites;
      Atomic.set node.idle false)
    (List.combine units (Node.place ~who:"Tcp_runner.run" ~nodes units));
  let started = Unix.gettimeofday () in
  (* one OCaml domain per node: with more cores than nodes the node
     loops run truly in parallel (the systhread version they replace
     shared one GIL-less runtime but still fought over the single
     domain's minor heap pauses) *)
  let doms =
    Array.to_list
      (Array.map (fun n -> Domain.spawn (node_loop shared n)) node_arr)
  in
  (* coordinator: two consecutive all-idle scans with nothing in flight *)
  let timed_out = ref false in
  let idle_streak = ref 0 in
  while not (Atomic.get shared.stop) do
    Unix.sleepf 0.005;
    let all_idle =
      Array.for_all (fun n -> Atomic.get n.idle) node_arr
      && Atomic.get shared.in_flight = 0
    in
    if all_idle then incr idle_streak else idle_streak := 0;
    if !idle_streak >= 3 then Atomic.set shared.stop true;
    if (Unix.gettimeofday () -. started) *. 1000. > float_of_int timeout_ms
    then begin
      timed_out := true;
      Atomic.set shared.stop true
    end
  done;
  List.iter Domain.join doms;
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. started) *. 1e9)
  in
  Array.iter
    (fun n ->
      match n.error with
      | Some exn ->
          let msg =
            match exn with
            | Failure m | Site.Protocol_error m -> m
            | e -> Printexc.to_string e
          in
          raise (Node_failure (n.node_id, msg))
      | None -> ())
    node_arr;
  let merged =
    (* Domain.join above is the happens-before edge for the node-
       confined registries *)
    if metrics then begin
      let into = Metrics.create ~enabled:true () in
      Array.iter (fun n -> Metrics.merge_into ~into n.mx) node_arr;
      into
    end
    else Metrics.disabled
  in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 node_arr in
  { outputs =
      List.concat_map
        (fun n -> List.map snd (Node.outputs n.host))
        (Array.to_list node_arr);
    packets = Atomic.get shared.total_packets;
    wall_ns;
    timed_out = !timed_out;
    parks = sum (fun n -> n.parks);
    dead_letters = sum (fun n -> Node.dead_letters n.host);
    metrics = merged }

let run_program ?nodes ?base_port ?timeout_ms ?metrics prog =
  ignore (Api.typecheck prog);
  try run ?nodes ?base_port ?timeout_ms ?metrics (Api.compile prog)
  with Node_failure (id, m) ->
    raise (Api.Error (Api.Runtime_error (Printf.sprintf "node %d failed: %s" id m)))
