(** A DiTyCO node (paper Fig. 4): one per IP address, a pool of sites
    sharing the node's processors, plus the node's communication
    daemon, TyCOd.

    The paper's nodes are dual-processor PCs; here each node models
    [cores] processors as earliest-available timestamps, so concurrent
    sites on one node serialize when they outnumber the cores — the
    effect measured by the scaling experiment E9.

    The daemon is the same under all three engines ({!Cluster},
    {!Par_runner}, {!Tcp_runner}).  It loads the node's sites, hands an
    arriving packet to its site or to the name-service replica the node
    serves (registrations, parked lookups, replies after a fixed
    processing cost), keeps the dead-letter and suspicion books,
    and schedules site quanta on the node's cores.  It reaches its
    engine only through a {!transport}. *)

type t

(** How a daemon reaches its engine: hand a packet to the links as
    sent from node [src_ip], run a closure [delay] virtual ns from now,
    read the virtual clock. *)
type transport = {
  send : src_ip:int -> ctx:Tyco_support.Trace.span -> Tyco_net.Packet.t -> unit;
  schedule : delay:int -> (unit -> unit) -> unit;
  now : unit -> int;
}

(** {1 Hosts}

    What the daemons of one engine instance share: the whole simulated
    cluster, one parallel shard, or one TCP node.  A host holds the
    transport, the parameters sites are created with, the tracer, the
    statistics registry, and the books: timestamped outputs,
    suspicions, dead letters, and the completion time of the latest
    quantum. *)

type host

val host :
  ?quantum:int ->
  ?retry:Site.retry ->
  ?lifecycle:Site.lifecycle ->
  ?timers:bool ->
  ?tracer:Tyco_support.Trace.t ->
  ?stats:Tyco_support.Stats.t ->
  unit ->
  host
(** [quantum] (VM instructions) makes the daemon schedule site quanta
    through the transport; without it the engine's own loop pumps the
    sites and the daemon only delivers.  [timers] gives sites virtual
    timers for their request deadlines.  The daemon counts in [stats]:
    ["deliveries"], the packets it hands to a live site,
    ["dead_letters"], the dead-letter book, and ["suspects_unlisted"],
    the suspicions {!suspect} did not list. *)

val connect : host -> transport -> unit
(** Give the host its transport; engines call it once, right after
    building the state their transport closes over. *)

val outputs : host -> (int * Output.event) list
(** I/O events of the host's sites with their timestamps, in order. *)

val suspected : host -> (int * string) list
(** [(time, who)], in order: dead or unknown destination sites,
    abandoned requests, and whatever the engine adds with {!suspect}.
    Each [who] appears once, at the time it was first suspected, and
    the list holds at most {!max_suspects} entries. *)

val dead_letters : host -> int
val busy_until : host -> int

val max_suspects : int
(** 1024: the most suspects a host lists.  Suspect names come from
    peers (a packet for an unknown site id), so the cap bounds the list
    and every report built from it whatever a peer sends. *)

val suspect : host -> string -> unit
(** Record a suspicion at the current time, unless [who] is already
    suspected: a repeated suspicion (another dead letter, packet for a
    dead site or timed-out batch) adds nothing.  Once the host lists
    {!max_suspects}, a new [who] only adds one to its
    ["suspects_unlisted"] counter, every time it is suspected. *)

val record_output : host -> Output.event -> unit

(** {1 Nodes} *)

val create : node_id:int -> ip:int -> cores:int -> t
(** A node with no sites, not yet attached to a host. *)

val node_id : t -> int
val ip : t -> int

val sites : t -> Site.t list
(** In load order. *)

val attach : t -> host -> unit
(** Run the node's daemon on [host].  A node arriving with sites (a
    migration between shards) forgets its core free-times, which come
    from a clock not comparable with the new host's, and its busy
    sites are woken. *)

val detach : t -> unit
(** Retire the node from its host: quanta already scheduled there for
    its sites do nothing when they fire. *)

val load : t -> int
(** Quantum cost executed so far. *)

val serve_names : t -> unit
(** Make this node serve a name-service replica. *)

val serves_names : t -> bool

val names_pending : t -> int
(** Lookups parked at this node's replica. *)

val place :
  who:string ->
  nodes:int ->
  ?placement:(string -> int) ->
  ?taken:(string -> bool) ->
  (string * 'a) list ->
  int list
(** The node index of each unit: [placement] of its name (default
    round-robin).  Raises [Invalid_argument], prefixed by [who], on a
    duplicate or [taken] name or an index outside [0, nodes). *)

val load_site :
  t ->
  ?annotations:Site.annotations ->
  ?inputs:int list ->
  name:string ->
  site_id:int ->
  Tyco_compiler.Block.unit_ ->
  Site.t
(** Create a site on this node with the host's parameters, start its
    entry thread and schedule its first quantum. *)

val deliver :
  t -> ctx:Tyco_support.Trace.span -> same_node:bool -> Tyco_net.Packet.t -> unit
(** A packet arrives at this node under span [ctx] ([same_node]: it
    took the shared-memory fast path): name-service traffic goes to the
    node's replica, anything else to its destination site.  A packet
    for a site the node does not host is a dead letter. *)

val register :
  t ->
  site_name:string ->
  id_name:string ->
  rtti:string ->
  ctx:Tyco_support.Trace.span ->
  Tyco_support.Netref.t ->
  unit
(** Register a name at this node's replica and answer the lookups
    parked on it — how a replicated registration reaches the other
    replicas. *)

(** {1 Transport endpoint}

    Sequence numbering and duplicate suppression of the node's daemon,
    used by the cluster's at-least-once delivery layer. *)

val fresh_seq : t -> dst_ip:int -> int
(** Next sequence number of this node's stream towards [dst_ip]
    (numbered per destination so receiver windows stay gapless). *)

val admit : t -> src_ip:int -> seq:int -> bool
(** [true] exactly the first time a given [(src_ip, seq)] is offered;
    retransmitted or duplicated copies return [false]. *)

val rx_floor : t -> src_ip:int -> int
(** Cumulative-ack floor towards [src_ip]: every sequence number below
    it has been delivered contiguously ([0] before any traffic).  This
    is the value batched frames piggyback back to the peer. *)

val dedup_window_size : t -> int
(** Out-of-order entries currently buffered across all peers — bounded
    by in-flight reordering, not by traffic volume. *)
