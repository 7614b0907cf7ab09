(** The whole DiTyCO network (paper Fig. 2): nodes in a static IP
    topology, sites placed on nodes, a centralized name service whose
    location every site knows in advance, and the discrete-event engine
    that multiplexes everything onto one deterministic virtual clock.

    Each node runs the {!Node} daemon (TyCOd); this module supplies the
    links between the daemons.  A packet for a site on the same node
    takes shared memory (the paper's same-node optimization, which
    skips framing).  Every other packet leaves its node one way: it
    waits in the per-destination outbox until a flush sends the batch
    as one [Fbatch] frame over the link the topology chooses.  With
    [reliable] on, that frame also carries a piggybacked cumulative
    ack, the receiver drops replays by sequence number, and the frame
    is retransmitted until acked, so every cross-node packet survives
    the fault model.  A registration
    at a replicated name service is copied, along the same path, from
    the exporter's home replica to every other one.

    A cluster may run only some of its nodes: each shard of the
    parallel engine ({!Par_runner}) is a cluster over its own fabric
    that runs the nodes attached to it.  A frame for a node attached
    elsewhere leaves through the {!on_depart} hook, after the fault
    dice have rolled, and lands on the other shard's fabric with
    {!take_frame}. *)

type t

(** Name-service deployment: the paper's current implementation is
    [Centralized] ("all sites know its location in advance"); its
    stated future work — one replica per node, lookups served locally,
    registrations broadcast — is [Replicated]. *)
type ns_mode = Centralized | Replicated

(** Daemon-level retransmission (used when [reliable] is on): an
    unacknowledged frame is re-sent under exponential backoff — initial
    timeout [rto_ns], multiplied by [rto_backoff] per attempt, jittered
    by the simulation PRNG — and after [max_attempts] sends the
    destination is suspected and the packet surfaces as an
    ["undeliverable"] output event. *)
type retry_params = {
  rto_ns : int;
  rto_backoff : float;
  max_attempts : int;
}

val default_retry_params : retry_params
(** 300 µs initial timeout, doubling, 12 attempts. *)

type config = {
  nodes : int;            (** cluster size; Fig. 1 uses 4 *)
  cores_per_node : int;   (** Fig. 1 uses dual-processor PCs: 2 *)
  quantum : int;          (** VM instructions per scheduling quantum *)
  topology : Tyco_net.Simnet.topology;
  seed : int;
  ns_mode : ns_mode;
  ns_replicas : int;
      (** Replicated mode: how many name-service replicas ([<= nodes];
          [0] means one per node).  Replica [r] is hosted by node ip
          [r]; nodes without a local replica consult [ip mod replicas]
          over the network. *)
  faults : Tyco_net.Simnet.fault_model;
      (** Link-fault injection (default [Simnet.no_faults]). *)
  reliable : bool;
      (** Turn on at-least-once delivery for every cross-node packet:
          receiver-side dedup by sequence number, cumulative acks
          (delayed 30 µs to piggyback on reverse traffic),
          retransmission per [retry], and per-request deadlines at the
          sites per [site_retry].  Default [false]: each frame is sent
          once, fire-and-forget. *)
  retry : retry_params;
  site_retry : Site.retry;
  tracing : bool;
      (** Turn on tracing, the one switch for everything a run records
          beyond its counts and outputs: every site gets a track in the
          shared {!Tyco_support.Trace} collector, packets carry spans,
          the run can be exported with {!tracer} (Chrome JSON or binary
          archive), and every packet sent is kept in the
          {!packet_trace} log.  Default [false] — the collector is the
          disabled singleton, no packet is kept, and every
          instrumentation point costs one load-and-branch. *)
  trace_capacity : int;
      (** When [tracing], the bound on each track's event ring and on
          the {!packet_trace} ring (default 65536); the oldest entries
          are dropped beyond it. *)
  flush_max_packets : int;
      (** Flush an outbox once it holds this many packets (default
          16; [1] sends one frame per packet, at enqueue), or 8192
          payload bytes, ... *)
  flush_deadline_ns : int;
      (** ... or this many virtual ns after its first packet (default
          0: the flush still runs as a separate event after the current
          one, so all packets emitted at one virtual instant coalesce
          while a lone packet is never delayed). *)
  lease_ns : int;
      (** Resource lifecycle: an exported channel/class is reclaimed
          once [2 * lease_ns] virtual ns pass with no use its exporter
          sees (an inbound packet resolving it, or a [Prelease]
          refresh an importer sends after passing the reference on or
          instantiating a cached class).  Default [0]: leases off,
          exports live forever (the seed behaviour).  See
          {!Site.lifecycle}. *)
  lease_refresh_ns : int;
      (** Cadence of the lifecycle tick (reclamation and refreshes);
          [0] (default) derives a quarter of [lease_ns]. *)
  code_cache_capacity : int;
      (** Per-site bound on each receiver-side linking cache (LRU,
          default 256); evicted entries re-link from the shipped code
          on the next miss. *)
}

val default_config : config

val site_lifecycle : config -> Site.lifecycle
(** The resource lifecycle every site of a cluster built from [config]
    is created with (leases and code-cache bound from the config). *)

val create : ?config:config -> unit -> t
(** A cluster of [config.nodes] fresh nodes, all attached. *)

val load :
  ?placement:(string -> int) ->
  ?annotations:(string -> Site.annotations option) ->
  ?inputs:(string -> int list) ->
  t ->
  (string * Tyco_compiler.Block.unit_) list ->
  unit
(** Install compiled sites.  [placement] maps a site name to a node
    index (default: round-robin); [annotations] supplies each site's
    type descriptors for the dynamic checking of remote interactions
    (paper §7).  Each site's entry thread is scheduled at the current
    virtual time. *)

val site : t -> string -> Site.t
(** Raises [Not_found]. *)

val sites : t -> Site.t list

val nodes : t -> Node.t list
(** The nodes attached to this cluster, by ip. *)

(** {1 Execution} *)

val run : ?max_events:int -> t -> unit
(** Run to quiescence (event queue empty). *)

val run_until : t -> time:int -> unit
(** Process events with timestamps [<= time] only — for perpetual
    programs (the SETI example) and time-bounded experiments. *)

val quiescent : t -> bool
val virtual_time : t -> int

(** {1 Observation} *)

val outputs : t -> (int * Output.event) list
(** All I/O events with their virtual timestamps, chronological. *)

val output_events : t -> Output.event list

val packets_sent : t -> int
val bytes_sent : t -> int

val same_node_fast : t -> int
(** Deliveries that took the same-node shared-memory fast path: source
    and destination share a node, so the packet skipped serialization,
    framing and acknowledgements entirely and paid only the
    shared-memory latency.  These do not count in {!packets_sent} /
    {!bytes_sent} — nothing crossed the fabric. *)

val frames_sent : t -> int
(** Physical frames that crossed the fabric: batch frames (first sends
    and retransmissions) and standalone cumulative acks.
    [frames_sent / packets_sent] is the framing overhead the
    coalescing saves (E16's gated metric). *)

val batch_fill_mean : t -> float
(** Mean packets per flushed batch ([0.] before any flush). *)

val acks_piggybacked : t -> int
(** Cumulative acks that rode on a reverse-direction batch instead of
    costing a standalone [Fcum_ack] frame (counted inside the total
    ["acks"] counter as well). *)

val in_flight : t -> int
val name_service_pending : t -> int
(** Unresolved imports (nonzero at quiescence indicates a program
    error: an import of a never-exported identifier). *)

(** {1 Failure injection (paper future work)} *)

val kill_site : t -> string -> at:int -> unit
(** Schedule a site failure at the given virtual time. *)

val suspected_failures : t -> (int * string) list
(** [(time, who)] — failures noticed by the simplified detector: a
    packet addressed to a dead or unknown site, a daemon exhausting its
    retransmissions towards a peer ([ip#n]), or a site abandoning a
    FETCH / import request ([site#n], exporter name).  Each [who]
    appears once, at its first suspicion, and the list holds at most
    {!Node.max_suspects} (1,024) entries: a suspicion past the cap is
    only counted, in ["suspects_unlisted"] ({!stats}).
    {!dead_letters} counts every packet. *)

val stats : t -> Tyco_support.Stats.t
(** What the run counts, always on, under the names an export
    ({!Tyco_support.Metrics}, [tycosh --metrics-out]) carries.  The
    links: ["packets"] (cross-node, at enqueue), ["bytes"] (of the
    frames put on the fabric, acks included), ["same_node_fast"],
    ["frames"], ["acks"], ["acks_piggybacked"], ["retries"],
    ["timeouts"], ["drops"], ["dupes"], ["reorders"],
    ["dupes_suppressed"], ["forwarded_envelopes"] (frames that
    followed a node that moved); distributions ["wire_ns"],
    ["retransmit_ns"], ["batch_fill"], ["flush_wait_ns"].  The
    daemons: ["deliveries"], ["dead_letters"] and
    ["suspects_unlisted"], the suspicions past {!Node.max_suspects}
    that {!suspected_failures} does not list ({!Node.host}). *)

val dead_letters : t -> int
(** Packets addressed to site ids this cluster never loaded. *)

val inject_packet : t -> src_ip:int -> Tyco_net.Packet.t -> unit
(** Test/experiment hook: push a raw packet into the fabric as if a
    site on [src_ip] had sent it. *)

val packet_trace : t -> (int * Tyco_net.Packet.t) list
(** With [config.tracing], the most recent packets sent (up to
    [trace_capacity]), cross-node and same-node alike, with their send
    timestamps, chronological — the observable migration behaviour of
    a run (shipments, fetches, name-service traffic).  [tycosh --trace]
    and the interactive shell's [:trace] print it.  Without tracing,
    [[]]. *)

val packet_trace_dropped : t -> int
(** Packets evicted from the bounded {!packet_trace} ring, so on a
    traced run kept + dropped = {!packets_sent} + {!same_node_fast}.
    [0] means the log is complete; always [0] without tracing. *)

val tracer : t -> Tyco_support.Trace.t
(** The run's causal-trace collector — the disabled singleton unless
    [config.tracing]; export with {!Tyco_support.Trace.to_chrome_json}
    or {!Tyco_support.Trace.serialize}. *)

(** {1 Shards}

    What the parallel engine builds each shard from. *)

type frame
(** A batch frame, a cumulative ack, or a same-node packet whose node
    moved, on its way to the daemon of node {!frame_dst}. *)

val frame_dst : frame -> int

val make_nodes : config -> Node.t array
(** [config.nodes] fresh nodes, attached nowhere; those with an ip
    below the name-service replica count serve a replica. *)

val shard : config -> nodes:Node.t array -> index:int -> count:int -> t
(** Shard [index] of [count]: a cluster over [nodes] with its own
    fabric, books, trace collector and statistics registry, running none
    of the nodes until they are attached.  Its fabric draws from
    [config.seed] for shard 0 and from a stream derived from it for
    the others; its span ids are [index + k * count]. *)

val attach : t -> Node.t -> unit
(** Run the node's daemon here. *)

val detach : t -> Node.t -> unit
(** Flush the node's outboxes, then stop running its daemon here: a
    frame or packet that lands here for it afterwards leaves through
    the {!on_depart} hook. *)

val on_depart : t -> (delay:int -> frame -> unit) -> unit
(** Where a frame goes whose node is not attached: it is due [delay]
    virtual ns from now, on the fabric of the node's shard.  Without a
    hook such a frame raises [Invalid_argument]. *)

val take_frame : t -> delay:int -> frame -> unit
(** A frame lands on this cluster's fabric [delay] virtual ns from
    now. *)

(** {1 Internals exposed for the experiment harness} *)

val sim : t -> Tyco_net.Simnet.t
val config : t -> config
