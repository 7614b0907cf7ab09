module Packet = Tyco_net.Packet
module Trace = Tyco_support.Trace
module Wire = Tyco_support.Wire
module Stats = Tyco_support.Stats
module Metrics = Tyco_support.Metrics

exception Node_failure of int * string

type result = {
  outputs : Output.event list;
  packets : int;
  wall_ns : int;
  timed_out : bool;
  parks : int;
  dead_letters : int;
  suspected : (int * string) list;
  metrics : Metrics.t;
  nodes : int;
  sites : Site.t list;
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

(* An accepted connection.  [from_node]: its far end is another node
   of this run, whose frames were counted as work when queued. *)
type inbound = { in_fd : Unix.file_descr; rx : conn_buf; from_node : bool }

(* The connection towards one peer node, with its coalesced outgoing
   frames; flushed once per pass. *)
type outbound = { out_fd : Unix.file_descr; tx : conn_buf }

type node = {
  node_id : int;
  listen : Unix.file_descr;
  (* by peer node id, connected during set-up; [None] at this node *)
  peers : outbound option array;
  (* the local addresses of the peers' connections towards this node,
     which is how an accepted end is told from an outside one *)
  mutable peer_addrs : Unix.sockaddr list;
  (* node-local encoder, reused across every outgoing packet *)
  enc : Wire.enc;
  mutable inbound : inbound list;
  (* this node's daemon: its sites and, on node 0, the name service *)
  daemon : Node.t;
  host : Node.host;
  mutable sites : Site.t list; (* pumped by the loop itself *)
  (* daemon work scheduled on this node — packets it addressed to
     itself, name-service replies — run by the loop; only touched by
     this node's domain *)
  deferred : (unit -> unit) Queue.t;
  (* this node's domain in the run's skeleton ({!Workers}): it holds
     its work unit while a site is busy or waits for a reply, or daemon
     work is deferred, and every frame it queued holds one until the
     peer reads it *)
  w : Workers.worker;
  (* read buffer, reused across iterations (was a per-iteration 8 KB
     allocation) *)
  scratch : Bytes.t;
  (* node-confined registry, shared with the daemon's host: only this
     node's domain counts in it; read after join *)
  stats : Stats.t;
  c_packets : Stats.Counter.t; (* packets queued for peers *)
  c_bytes : Stats.Counter.t; (* their encoded bytes *)
}

(* Queue one packet for [peer]: encode (into the node's reused
   encoder — no per-packet buffer churn) straight into the peer's tx
   buffer behind its length prefix.  The bytes leave in [flush_tx]. *)
let send_to run node peer ~ctx (p : Packet.t) =
  Workers.count run 1;
  let tx = (Option.get node.peers.(peer)).tx in
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
  Stats.Counter.incr node.c_packets;
  Stats.Counter.add node.c_bytes n

let flush_tx node =
  Array.iter
    (function
      | Some { out_fd; tx } when tx.len > 0 ->
          (* loopback writes of small buffers complete immediately; loop
             for completeness *)
          let rec write_all off =
            if off < tx.len then begin
              match Unix.write out_fd tx.data off (tx.len - off) with
              | n -> write_all (off + n)
              | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
                  Domain.cpu_relax ();
                  write_all off
            end
          in
          write_all 0;
          tx.len <- 0
      | _ -> ())
    node.peers

(* ------------------------------------------------------------------ *)
(* Per-node event loop.                                                *)

(* The daemon's transport: a packet for this node stays in memory, any
   other leaves over its peer's socket.  There is no virtual clock, so
   scheduled work runs on the next pass of the loop. *)
let transport run node =
  { Node.send =
      (fun ~src_ip:_ ~ctx p ->
        let dst = Packet.dst_ip p ~ns_ip:0 in
        if dst = node.node_id then
          Queue.push
            (fun () -> Node.deliver node.daemon ~ctx ~same_node:false p)
            node.deferred
        else send_to run node dst ~ctx p);
    schedule = (fun ~delay:_ f -> Queue.push f node.deferred);
    now = (fun () -> 0) }

(* One busy pass: accept one connection, read every socket once, run
   the deferred work and the busy sites, write what they sent.  Returns
   whether it found anything to do. *)
let pass run node =
  let worked = ref false in
  (match Unix.accept node.listen with
  | fd, addr ->
      Unix.set_nonblock fd;
      let from_node = List.mem addr node.peer_addrs in
      node.inbound <- { in_fd = fd; rx = buf_create (); from_node } :: node.inbound;
      worked := true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let scratch = node.scratch in
  List.iter
    (fun c ->
      match Unix.read c.in_fd scratch 0 (Bytes.length scratch) with
      | 0 ->
          (* the peer closed: it leaves the poll set, or a blocking park
             would return on its end-of-file at once, forever *)
          Unix.close c.in_fd;
          node.inbound <- List.filter (fun c' -> c' != c) node.inbound
      | n ->
          buf_append c.rx scratch n;
          let frames = buf_drain c.rx in
          if frames <> [] then begin
            worked := true;
            Workers.hold node.w;
            List.iter
              (fun payload ->
                let p, sp = Packet.of_string_traced payload in
                Node.deliver node.daemon
                  ~ctx:(Option.value ~default:Trace.null_span sp)
                  ~same_node:false p)
              frames;
            if c.from_node then Workers.uncount run (List.length frames)
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
    node.inbound;
  while not (Queue.is_empty node.deferred) do
    worked := true;
    (Queue.pop node.deferred) ()
  done;
  List.iter
    (fun s ->
      if Site.busy s then begin
        worked := true;
        ignore (Site.pump s ~quantum:2048)
      end)
    node.sites;
  (* everything the sites and the daemon queued this pass leaves now,
     one write per peer *)
  flush_tx node;
  Workers.settle node.w
    ~busy:
      (List.exists (fun s -> Site.busy s || Site.outstanding s > 0) node.sites
      || not (Queue.is_empty node.deferred));
  !worked

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
  (* round-robin, as the simulated cluster does; checked before any
     socket exists *)
  let placement = Node.place ~who:"Tcp_runner.run" ~nodes units in
  let run = Workers.create () in
  let addr node_id =
    Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + node_id)
  in
  let mk_node node_id =
    let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen Unix.SO_REUSEADDR true;
    Unix.bind listen (addr node_id);
    (* room for every peer's set-up connection besides outside ones *)
    Unix.listen listen (nodes + 16);
    Unix.set_nonblock listen;
    let stats = Stats.create () in
    let c_packets = Stats.counter stats "packets" in
    let c_bytes = Stats.counter stats "bytes" in
    let daemon = Node.create ~node_id ~ip:node_id ~cores:1 in
    let host = Node.host ~stats () in
    let node =
      { node_id;
        listen;
        peers = Array.make nodes None;
        peer_addrs = [];
        enc = Wire.encoder ~size:256 ();
        inbound = [];
        daemon;
        host;
        sites = [];
        deferred = Queue.create ();
        w = Workers.worker run ~id:node_id;
        scratch = Bytes.create 8192;
        stats;
        c_packets;
        c_bytes }
    in
    Node.connect host (transport run node);
    Node.attach daemon host;
    if node_id = 0 then Node.serve_names daemon;
    node
  in
  let node_arr = Array.init nodes mk_node in
  (* every ordered pair, while no node runs: each connection completes
     into its listener's backlog, and the node accepts it in its loop *)
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if dst.node_id <> src.node_id then begin
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (addr dst.node_id);
            Unix.set_nonblock fd;
            dst.peer_addrs <- Unix.getsockname fd :: dst.peer_addrs;
            src.peers.(dst.node_id) <- Some { out_fd = fd; tx = buf_create () }
          end)
        node_arr)
    node_arr;
  List.iteri
    (fun site_id ((name, unit_), i) ->
      let node = node_arr.(i) in
      let site =
        Node.load_site node.daemon ~inputs:(inputs name) ~name ~site_id unit_
      in
      node.sites <- site :: node.sites;
      Workers.hold node.w)
    (List.combine units placement);
  let started = Unix.gettimeofday () in
  (* one OCaml domain per node: with more cores than nodes the node
     loops run truly in parallel *)
  Array.iter
    (fun n ->
      (* a parked node wakes on a readable socket or a peer connecting *)
      Workers.start n.w ~pass:(fun () -> pass run n)
        ~fds:(fun () -> n.listen :: List.map (fun c -> c.in_fd) n.inbound))
    node_arr;
  let timed_out =
    Workers.wait run ~deadline:(started +. (float_of_int timeout_ms /. 1000.)) ()
  in
  (* the sockets close after the join, so no node loses a peer's end
     while it may still write to it *)
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n ->
          Array.iter (Option.iter (fun o -> Unix.close o.out_fd)) n.peers;
          List.iter (fun c -> Unix.close c.in_fd) n.inbound;
          Unix.close n.listen)
        node_arr)
    (fun () -> Workers.join run ~fail:(fun id m -> Node_failure (id, m)));
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. started) *. 1e9)
  in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 node_arr in
  let parks = sum (fun n -> Workers.parks n.w) in
  (* Workers.join above is the happens-before edge for the node-
     confined registries *)
  let registry = Stats.create () in
  if metrics then begin
    Array.iter (fun n -> Stats.merge_into ~into:registry n.stats) node_arr;
    Stats.Counter.add (Stats.counter registry "parks") parks
  end;
  { outputs =
      List.concat_map
        (fun n -> List.map snd (Node.outputs n.host))
        (Array.to_list node_arr);
    packets = sum (fun n -> Stats.Counter.value n.c_packets);
    wall_ns;
    timed_out;
    parks;
    dead_letters = sum (fun n -> Node.dead_letters n.host);
    suspected =
      List.concat_map (fun n -> Node.suspected n.host) (Array.to_list node_arr);
    metrics = registry;
    nodes;
    sites =
      List.concat_map (fun n -> List.rev n.sites) (Array.to_list node_arr) }

let run_program ?nodes ?base_port ?timeout_ms ?metrics prog =
  ignore (Api.typecheck prog);
  try run ?nodes ?base_port ?timeout_ms ?metrics (Api.compile prog)
  with Node_failure (id, m) ->
    raise (Api.Error (Api.Runtime_error (Printf.sprintf "node %d failed: %s" id m)))
