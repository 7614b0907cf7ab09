(** One record of a finished run, for every engine.

    A report is built after a run has ended, and only when a caller
    asks for one: {!of_cluster} for the deterministic engine,
    {!of_parallel} for the parallel one and {!of_tcp} for TCP.  One
    builder fills the common part from what every engine holds after
    its join — the outputs, the run's merged
    {!Tyco_support.Stats} registry (traffic counts and the wire-side
    latencies), its sites (VM statistics, queue-wait and execute
    latencies, resident protocol state) and its failure suspicions.
    An engine section holds what only that engine knows.  {!to_json}
    is the one JSON writer: [tycosh --json] prints it for every engine,
    and [tycosh --metrics-out] exports the report's [stats].

    The TCP engine has no virtual clock, so its [virtual_ns],
    [sim_events] and output timestamps read 0.  Its nodes count
    packets, bytes (encoded packet bytes, not frame bytes), deliveries
    and dead letters only: the counts it does not keep (frames, acks,
    same-node deliveries) read 0, and the wire-side latencies are
    [None].  So is the queue wait: with a clock that reads 0, a site's
    queue-wait samples are its modelled handling-cost offsets, not
    waits.  Its suspicions are its nodes' (a dead letter suspects its
    site), each at time 0. *)

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
      (** mean run-queue depth at quantum start — the latency-hiding
          evidence: deep queues mean remote waits are overlapped *)
}

(** Where a run's latency went (summaries are [None] when no samples
    were recorded — emitted as [null], never [inf]):
    - [b_queue_wait] — packet arrival to processing, pooled over sites;
    - [b_wire] — physical link delay per transmission;
    - [b_retransmit] — time spent waiting on unacknowledged frames
      (reliable mode only);
    - [b_execute] — VM cost per pump quantum, pooled over sites;
    - [b_flush_wait] — time packets sat in their destination outbox
      before the batch flush (all zero at the default 0 ns flush
      deadline; nonzero deadlines trade this latency for fill);
    - [b_handoff] — virtual ns from a frame's departure to its landing
      on another shard ([None] where no frame crossed a ring). *)
type breakdown = {
  b_queue_wait : Tyco_support.Stats.Dist.summary option;
  b_wire : Tyco_support.Stats.Dist.summary option;
  b_retransmit : Tyco_support.Stats.Dist.summary option;
  b_execute : Tyco_support.Stats.Dist.summary option;
  b_flush_wait : Tyco_support.Stats.Dist.summary option;
  b_handoff : Tyco_support.Stats.Dist.summary option;
}

(** Resident protocol state summed over sites (live export-table and
    cache occupancy, duplicate-suppression entries, and
    [mem_held_imports]: foreign references marked for the next lease
    refresh plus fetched classes whose last use is tracked) plus
    lifetime reclamation counters ([mem_held_dropped] counts fetched
    classes dropped after a lease period unused).  A bounded run
    shows flat [*_live] numbers against growing [*_allocated] /
    [mem_ids_reclaimed] ones. *)
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

(** What only one engine knows: its own result, whose JSON section
    ({!to_json}) also carries what the report derives from the shard
    registries and the sites. *)
type engine =
  | Deterministic
  | Parallel of Par_runner.result
      (** section ["parallel"]: the domains, ring traffic, parks, wall
          time, [clean], [timed_out], node weights and per-shard rows,
          plus the instructions, migrations, migration time, forwarded
          frames, and each shard's sites and placement weight *)
  | Tcp of Tcp_runner.result
      (** section ["tcp"]: the nodes, parks, wall time and [timed_out] *)

type t = {
  engine : engine;
  virtual_ns : int;
  sim_events : int;
  packets : int;
  bytes : int;
  same_node_fast : int;
      (** deliveries that used the same-node shared-memory fast path
          (no serialization; excluded from [packets]/[bytes]) *)
  frames_sent : int;
      (** physical frames across the fabric (batch frames, their
          retransmissions, standalone acks); [frames_sent /. packets]
          is the framing overhead batching amortizes *)
  batch_fill_mean : float;
      (** mean packets per flushed batch ([0.] when nothing crossed
          nodes) *)
  acks_piggybacked : int;
      (** cumulative acks carried by reverse-direction batches instead
          of standalone ack frames *)
  dead_letters : int;
      (** packets for a site the receiving node does not host *)
  outputs : (int * Output.event) list;
  sites : site_stats list;
  breakdown : breakdown;
  suspected_failures : (int * string) list;
  memory : memory;
  stats : Tyco_support.Stats.t;
      (** the run's registry, which the traffic counts and the
          wire-side latencies above are read from, and which
          [tycosh --metrics-out] writes: the cluster's own for
          {!of_cluster}; for {!of_parallel} a fresh
          one, the shard registries merged plus ["ring_pushed"],
          ["ring_popped"], ["ring_hiwater"] (the shards' outbound
          high-waters, summed), ["parks"] and ["placement_weight"]
          (the shards' rounded weights, summed); {!Tcp_runner.result}'s
          [metrics] for {!of_tcp} *)
}

val of_cluster : Cluster.t -> t
(** A deterministic run: {!Cluster.stats} is the report's registry. *)

val of_parallel : Par_runner.result -> t
(** A parallel run.  At one domain every common field equals
    {!of_cluster}'s for the same program and configuration. *)

val of_tcp : Tcp_runner.result -> t
(** A TCP run.  Its counts are read from [metrics], so the run must
    have been made with [~metrics:true]. *)

val instructions : t -> int
(** VM instructions summed over the run's sites. *)

val to_json : t -> string
(** Compact single-line JSON: the common keys, then the engine's
    section under ["parallel"] or ["tcp"] (none for the deterministic
    engine). *)

val json_escape : string -> string
(** Exposed for tests: JSON string escaping. *)
