(* A DiTyCO node (paper Fig. 4): a pool of sites sharing the node's
   processors, plus the node's communication daemon, TyCOd.

   The daemon is written once, here, and runs under all three engines.
   It loads the node's sites, hands each arriving packet to its site or
   to the name-service replica the node serves, keeps the dead-letter
   and suspicion books, and schedules site quanta on the node's cores.
   It reaches its engine only through a [transport]: send a packet from
   an ip, schedule a closure after a delay, read the clock.  The links
   behind it — Simnet links in [Cluster], whose frames cross SPSC rings
   between [Par_runner]'s shards, and sockets in [Tcp_runner] — are the
   engine's. *)

module Packet = Tyco_net.Packet
module Nameservice = Tyco_net.Nameservice
module Netref = Tyco_support.Netref
module Trace = Tyco_support.Trace
module Stats = Tyco_support.Stats

(* Cost of a name-service transaction at the service itself. *)
let ns_processing_cost = 1_000

(* Scheduling overhead added after each quantum (context switch). *)
let context_switch_cost = 200

type transport = {
  send : src_ip:int -> ctx:Trace.span -> Packet.t -> unit;
  schedule : delay:int -> (unit -> unit) -> unit;
  now : unit -> int;
}

let unconnected =
  let fail () = invalid_arg "Node: the host has no transport" in
  { send = (fun ~src_ip:_ ~ctx:_ _ -> fail ());
    schedule = (fun ~delay:_ _ -> fail ());
    now = fail }

(* What the daemons of one engine instance share — the whole simulated
   cluster, one parallel shard, or one TCP node: the transport, the
   parameters sites are created with, the observability handles and
   the books. *)
type host = {
  mutable tp : transport;
  pumps : bool; (* false: the engine's own loop pumps the sites *)
  quantum : int;
  retry : Site.retry;
  lifecycle : Site.lifecycle;
  timers : bool; (* give sites virtual timers for request deadlines *)
  tracer : Trace.t;
  tr_on : bool; (* cached [Trace.enabled tracer] *)
  deliveries : Stats.Counter.t;
  dead_letters : Stats.Counter.t;
  suspects_unlisted : Stats.Counter.t;
  mutable outs : (int * Output.event) list; (* newest first *)
  mutable suspected : (int * string) list; (* newest first *)
  suspects : (string, unit) Hashtbl.t; (* who [suspected] names *)
  mutable busy_until : int; (* completion time of the latest quantum *)
}

let host ?quantum ?(retry = Site.default_retry)
    ?(lifecycle = Site.default_lifecycle) ?(timers = false)
    ?(tracer = Trace.disabled) ?(stats = Stats.create ()) () =
  let deliveries = Stats.counter stats "deliveries" in
  let dead_letters = Stats.counter stats "dead_letters" in
  let suspects_unlisted = Stats.counter stats "suspects_unlisted" in
  { tp = unconnected;
    pumps = quantum <> None;
    quantum = Option.value quantum ~default:0;
    retry;
    lifecycle;
    timers;
    tracer;
    tr_on = Trace.enabled tracer;
    deliveries;
    dead_letters;
    suspects_unlisted;
    outs = [];
    suspected = [];
    suspects = Hashtbl.create 8;
    busy_until = 0 }

let connect h tp = h.tp <- tp
let outputs h = List.rev h.outs
let suspected h = List.rev h.suspected
let dead_letters h = Stats.Counter.value h.dead_letters
let busy_until h = h.busy_until

(* The most suspects a host lists.  Names come from peers (a packet
   for site id N suspects "site#N"), so without a cap a peer that sends
   to N unknown site ids would grow the list, and every report built
   from it, by N. *)
let max_suspects = 1024

(* Once per suspect, at its first suspicion: a peer that keeps sending
   to a dead or unknown site grows the dead-letter count, not the
   list.  Past [max_suspects] a new name is only counted, in
   [suspects_unlisted]; it is not remembered, so a further suspicion
   of it counts again. *)
let suspect h who =
  if not (Hashtbl.mem h.suspects who) then
    if Hashtbl.length h.suspects < max_suspects then begin
      Hashtbl.add h.suspects who ();
      h.suspected <- (h.tp.now (), who) :: h.suspected
    end
    else Stats.Counter.incr h.suspects_unlisted

let record_output h e = h.outs <- (h.tp.now (), e) :: h.outs

(* A loaded site as the daemon schedules it.  A migration marks the
   node's slots [stale], so pump events still queued on the old host
   do nothing; the new host gets fresh slots. *)
type slot = { site : Site.t; mutable scheduled : bool; mutable stale : bool }

(* Receiver-side duplicate suppression: for one peer, [floor] is the
   lowest sequence number not yet delivered contiguously and [seen]
   the out-of-order ones above it.  Because senders number packets per
   destination, the stream has no permanent holes and the window stays
   a handful of entries even under heavy reordering. *)
type rx_window = { mutable floor : int; seen : (int, unit) Hashtbl.t }

type t = {
  node_id : int;
  ip : int;
  cores : int array;  (* time each core becomes free *)
  mutable host : host;
  mutable sites : Site.t list; (* newest first *)
  mutable slots : (int, slot) Hashtbl.t; (* site id -> slot *)
  mutable ns : Nameservice.t option; (* the replica this node serves *)
  load : int Atomic.t; (* quantum cost executed, read by a rebalancer *)
  (* transport endpoint state of the daemon *)
  tx_seq : (int, int ref) Hashtbl.t;    (* dst ip -> next sequence no. *)
  rx : (int, rx_window) Hashtbl.t;      (* src ip -> dedup window *)
}

let detached = host ()

let create ~node_id ~ip ~cores =
  if cores < 1 then invalid_arg "Node.create: cores must be >= 1";
  { node_id; ip; cores = Array.make cores 0; host = detached; sites = [];
    slots = Hashtbl.create 8; ns = None; load = Atomic.make 0;
    tx_seq = Hashtbl.create 8; rx = Hashtbl.create 8 }

let node_id t = t.node_id
let ip t = t.ip
let sites t = List.rev t.sites
let load t = Atomic.get t.load
let serve_names t = t.ns <- Some (Nameservice.create ())
let serves_names t = t.ns <> None

let names_pending t =
  match t.ns with Some ns -> Nameservice.pending ns | None -> 0

(* ------------------------------------------------------------------ *)
(* Quantum scheduling on the node's cores.                             *)

let earliest_core t =
  let best = ref 0 in
  for i = 1 to Array.length t.cores - 1 do
    if t.cores.(i) < t.cores.(!best) then best := i
  done;
  (!best, t.cores.(!best))

let rec request_pump t slot ~delay =
  if (not slot.scheduled) && (not slot.stale) && Site.alive slot.site then begin
    slot.scheduled <- true;
    t.host.tp.schedule ~delay (fun () -> pump_event t slot)
  end

and pump_event t slot =
  slot.scheduled <- false;
  if (not slot.stale) && Site.alive slot.site then begin
    let h = t.host in
    let now = h.tp.now () in
    let core, free = earliest_core t in
    if free > now then
      (* all processors busy: wait for one (Fig. 1's dual-CPU nodes) *)
      request_pump t slot ~delay:(free - now)
    else begin
      let cost = Site.pump ~now slot.site ~quantum:h.quantum in
      ignore (Atomic.fetch_and_add t.load cost);
      let duration = cost + context_switch_cost in
      t.cores.(core) <- max t.cores.(core) (now + duration);
      h.busy_until <- max h.busy_until (now + duration);
      if Site.busy slot.site then request_pump t slot ~delay:duration
    end
  end

let wake t slot = if t.host.pumps then request_pump t slot ~delay:0

(* ------------------------------------------------------------------ *)
(* Hosting and loading.                                                *)

(* Point the node at [h].  For a node arriving from another host (a
   migration between shards) the old core free-times come from a clock
   that is not comparable with the new one, so they are forgotten; the
   sites get fresh slots and the busy ones are woken. *)
let attach t h =
  t.host <- h;
  Array.fill t.cores 0 (Array.length t.cores) 0;
  let slots =
    List.rev_map (fun site -> { site; scheduled = false; stale = false }) t.sites
  in
  t.slots <- Hashtbl.create 8;
  List.iter (fun s -> Hashtbl.replace t.slots (Site.site_id s.site) s) slots;
  List.iter (fun s -> if Site.busy s.site then wake t s) slots

let detach t = Hashtbl.iter (fun _ slot -> slot.stale <- true) t.slots

let place ~who ~nodes ?placement ?(taken = fun _ -> false) units =
  let seen = Hashtbl.create 16 in
  List.mapi
    (fun i (name, _) ->
      if taken name || Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "%s: duplicate site '%s'" who name);
      Hashtbl.add seen name ();
      match placement with
      | None -> i mod nodes
      | Some f ->
          let n = f name in
          if n < 0 || n >= nodes then
            invalid_arg
              (Printf.sprintf "%s: site '%s' placed on node %d" who name n);
          n)
    units

let load_site t ?annotations ?(inputs = []) ~name ~site_id unit_ =
  let h = t.host in
  let site =
    Site.create ?annotations ~inputs ~retry:h.retry ~lifecycle:h.lifecycle
      ?schedule:
        (if h.timers then Some (fun ~delay f -> t.host.tp.schedule ~delay f)
         else None)
      ~on_suspect:(fun who -> suspect t.host who)
      ~trace:h.tracer ~name ~site_id ~ip:t.ip
      ~send:(fun ctx p -> t.host.tp.send ~src_ip:t.ip ~ctx p)
      ~on_output:(fun e -> record_output t.host e)
      ~unit_ ()
  in
  t.sites <- site :: t.sites;
  let slot = { site; scheduled = false; stale = false } in
  Hashtbl.replace t.slots site_id slot;
  Site.start site;
  wake t slot;
  site

(* ------------------------------------------------------------------ *)
(* Packet dispatch.                                                    *)

let to_site t site_id ~ctx ~same_node p =
  let h = t.host in
  match Hashtbl.find_opt t.slots site_id with
  | None ->
      (* a packet for a site this node does not host: count it as a
         dead letter and record the phantom destination rather than
         dropping it silently *)
      Stats.Counter.incr h.dead_letters;
      suspect h (Printf.sprintf "site#%d" site_id)
  | Some slot ->
      if Site.alive slot.site then begin
        let now = h.tp.now () in
        Stats.Counter.incr h.deliveries;
        if h.tr_on then
          Trace.emit h.tracer ~ts:now ~track:site_id ~span:ctx
            (Trace.Deliver { pk = Packet.trace_pk p; same_node });
        Site.deliver ~ctx ~now slot.site p;
        wake t slot
      end
      else suspect h (Site.name slot.site)

let names t =
  match t.ns with
  | Some ns -> ns
  | None -> failwith (Printf.sprintf "node %d serves no names" t.ip)

let reply_ns t ~ctx p =
  (* name-service processing cost, then the reply travels as a packet —
     under a span of its own, a child of the request (or registration)
     that triggered it *)
  let h = t.host in
  let ctx' =
    if h.tr_on then Trace.fresh_span h.tracer ~parent:ctx else Trace.null_span
  in
  h.tp.schedule ~delay:ns_processing_cost (fun () ->
      (* the name service is not a site, so the reply's [Send] lands on
         the fabric track — every packet span must have one for the
         causal tree (and the Perfetto flow arrow) to be complete *)
      if h.tr_on then
        Trace.emit h.tracer ~ts:(h.tp.now ()) ~track:Trace.fabric_track
          ~span:ctx'
          (Trace.Send { pk = Packet.trace_pk p; bytes = Packet.byte_size p });
      h.tp.send ~src_ip:t.ip ~ctx:ctx' p)

let register t ~site_name ~id_name ~rtti ~ctx nref =
  List.iter
    (fun (w : Nameservice.waiter) ->
      reply_ns t ~ctx
        (Packet.Pns_reply
           { req_id = w.Nameservice.w_req_id; dst_site = w.Nameservice.w_site;
             dst_ip = w.Nameservice.w_ip; result = Some nref; rtti }))
    (Nameservice.register_id (names t) ~site:site_name ~name:id_name ~rtti nref)

let ns_serve t ~ctx =
  let h = t.host in
  if h.tr_on then
    Trace.emit h.tracer ~ts:(h.tp.now ()) ~track:Trace.fabric_track ~span:ctx
      Trace.Ns_serve

let deliver t ~ctx ~same_node (p : Packet.t) =
  match p with
  | Packet.Pns_register { site_name; id_name; nref; rtti } ->
      ns_serve t ~ctx;
      register t ~site_name ~id_name ~rtti ~ctx nref
  | Packet.Pns_lookup
      { site_name; id_name; req_id; requester_site; requester_ip; _ } -> (
      ns_serve t ~ctx;
      let waiter =
        { Nameservice.w_req_id = req_id; w_site = requester_site;
          w_ip = requester_ip }
      in
      match Nameservice.lookup_id (names t) ~site:site_name ~name:id_name waiter with
      | Some (nref, rtti) ->
          reply_ns t ~ctx
            (Packet.Pns_reply
               { req_id; dst_site = requester_site; dst_ip = requester_ip;
                 result = Some nref; rtti })
      | None -> (* parked until the registration arrives *) ())
  | Packet.Pmsg { dst; _ } | Packet.Pobj { dst; _ } ->
      to_site t dst.Netref.site_id ~ctx ~same_node p
  | Packet.Pfetch_req { cls; _ } -> to_site t cls.Netref.site_id ~ctx ~same_node p
  | Packet.Pfetch_rep { dst_site; _ } | Packet.Pns_reply { dst_site; _ } ->
      to_site t dst_site ~ctx ~same_node p
  | Packet.Prelease { origin_site; _ } -> to_site t origin_site ~ctx ~same_node p

(* ------------------------------------------------------------------ *)
(* Transport endpoint.                                                 *)

let fresh_seq t ~dst_ip =
  let r =
    match Hashtbl.find_opt t.tx_seq dst_ip with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.tx_seq dst_ip r;
        r
  in
  let s = !r in
  incr r;
  s

let admit t ~src_ip ~seq =
  let w =
    match Hashtbl.find_opt t.rx src_ip with
    | Some w -> w
    | None ->
        let w = { floor = 0; seen = Hashtbl.create 8 } in
        Hashtbl.add t.rx src_ip w;
        w
  in
  if seq < w.floor || Hashtbl.mem w.seen seq then false
  else begin
    Hashtbl.add w.seen seq ();
    while Hashtbl.mem w.seen w.floor do
      Hashtbl.remove w.seen w.floor;
      w.floor <- w.floor + 1
    done;
    true
  end

let rx_floor t ~src_ip =
  match Hashtbl.find_opt t.rx src_ip with
  | Some w -> w.floor
  | None -> 0

let dedup_window_size t =
  Hashtbl.fold (fun _ w acc -> acc + Hashtbl.length w.seen) t.rx 0
