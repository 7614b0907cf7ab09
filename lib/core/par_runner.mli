(** Parallel execution engine: the simulated cluster sharded over
    OCaml 5 domains.

    Each shard is a {!Cluster} over its own fabric — its own
    {!Tyco_net.Simnet} (clock, heap, PRNG), books, trace collector and
    statistics registry — running the {!Node} daemons (TyCOd) of the nodes
    attached to it, and everything beneath them: sites, VMs, export
    tables, intern areas, statistics.  Which nodes a shard runs is
    decided by a {!Placement} policy ([ip mod domains] by default;
    greedy bin-packing over site counts when the caller opts in).
    Every cross-node packet leaves its node through the shard
    cluster's outbox, one frame per flush, as in the deterministic
    engine, so a program sends the same frames at every domain count
    where its events send at most one packet each.  A frame for a node
    on another shard leaves its cluster after the fault dice have
    rolled and travels through one bounded lock-free
    {!Tyco_support.Spsc_ring} per ordered shard pair, one frame per
    ring element: each shard buffers its departing frames per
    destination shard and pushes them at every event boundary, never
    inside an event.  A frame sent at sender-virtual time [s] with wire
    delay [d] lands at receiver-virtual time [max (receiver now)
    (s + d)], so delivery timestamps stay monotone per receiver.

    At more than one domain this engine preserves the deterministic
    engine's output {e multisets}; output {e timestamps} (and their
    order) depend on domain interleaving.  One domain is one shard
    whose cluster draws from [config.seed]: its outputs, virtual time
    and trace are a plain {!Cluster} run's.

    Termination and parking are {!Workers}': the run stops when no
    shard heap, ring element, posted command or node in transit is
    left, and an idle shard polls for 50 µs, then blocks until it is
    given work or the run stops.

    Observability: when [config.tracing] each shard's cluster owns a
    private {!Tyco_support.Trace} collector whose span ids stride by
    the domain count ([span_base = shard], [span_stride = domains]) so
    they are globally unique without a shared counter; frames carry
    their packets' spans, and above one domain the collectors are
    folded with {!Tyco_support.Trace.merge} into one shard-tagged
    archive at quiescence.  The collector is the disabled singleton
    when off, so every trace point on the hot path costs one
    load-and-branch.  Each shard counts in its cluster's
    {!Tyco_support.Stats} registry ({!Cluster.stats}), always on; this
    engine adds ["handoffs_in"], ["drains"], ["migrations"],
    ["migration_ns"] and the distribution ["handoff_lat_ns"] (virtual
    ns from a frame's departure to its landing).  The registries are
    read only after the join, and only when a caller asks:
    {!Report.of_parallel} merges them into the run's registry.

    Dynamic rebalancing (PR 10): node ownership can change mid-run.
    The node-to-shard map is an indirection table of atomics; the
    coordinator watches per-node load and, past a threshold, has the
    owning shard {e ship} the node's daemon, sites included, through
    the ordinary rings as a migration element; the receiving shard
    attaches it to its own cluster.  One work unit is held from ship
    to install (quiescence stays exact with a node in transit), a
    frame for a node the shard does not run is {e forwarded} along the
    table when the node lives elsewhere, and frames that race ahead of
    the element park in the receiving shard's limbo until the install
    lands them.  A node serving a name-service replica is never moved.
    Each shard counts ["migrations"], ["migration_ns"] and
    ["forwarded_envelopes"] in its registry.

    Reliable delivery is rejected above one domain with
    [Invalid_argument]: its retransmission timer and the sites'
    request deadlines run on shard clocks that the clock-merge rule
    does not synchronize, so a reply from a shard whose clock runs
    ahead can land after a deadline.  So is tracing combined with
    rebalancing: a site's trace collector is captured at creation and
    cannot follow the site across domains. *)

exception Shard_failure of int * string
(** An exception that escaped one shard's domain, re-raised at join as
    [(shard id, message)], the message as {!Workers.join} renders it.
    {!Api.run_parallel} maps it to
    [Api.Error (Runtime_error "shard N failed: ...")]. *)

(** Per-shard section of the run report: ring traffic, occupancy
    high-water, backpressure and parking — the signals that say where
    a parallel run's time went. *)
type shard_stat = {
  ss_shard : int;
  ss_sites : int;
  ss_events : int;       (** simulation events this shard executed *)
  ss_virtual_ns : int;   (** the shard clock at quiescence *)
  ss_ring_pushed : int;  (** ring elements this shard pushed outbound *)
  ss_ring_popped : int;  (** ring elements this shard consumed *)
  ss_ring_hiwater : int; (** max outbound-ring occupancy at push *)
  ss_parks : int;
  ss_drains : int;       (** backpressure drain passes while pushing *)
  ss_weight : float;     (** placement weight this shard was assigned *)
  ss_stats : Tyco_support.Stats.t;
      (** the shard cluster's registry ({!Cluster.stats}), with this
          engine's counts added: the shard's packets, same-node
          deliveries and frames received (["handoffs_in"]) are read
          here *)
}

(** A coordinator-side mid-run observation: only whole-run atomics and
    ring counters are read (never a shard heap), so taking one is safe
    while the domains run.  [tycosh --metrics-out] streams these as
    JSONL. *)
type snapshot = {
  sn_wall_ms : float;
  sn_work : int;            (** the run's work count ({!Workers}) *)
  sn_executed : int array;  (** per shard, monotone *)
  sn_ring_pushed : int;     (** ring elements *)
  sn_ring_popped : int;
  sn_migrations : int;      (** node installs completed so far *)
}

(** Dynamic-rebalancing knobs ([tycosh --rebalance
    interval:MS,threshold:R]): every [rb_interval_ms] wall
    milliseconds the coordinator turns the per-node load-counter
    deltas into a load estimate and, when the max-over-mean per-shard
    load exceeds [rb_threshold], issues at most one migration
    ({!Placement.choose_migration}).  One migration is outstanding at
    a time, so each decision sees the previous one's effect. *)
type rebalance = {
  rb_interval_ms : int;
  rb_threshold : float;
}

(** What a run leaves for its caller, read after the join.  The
    counts a run report derives from the shard registries and the
    sites — virtual time, events, packets, bytes, instructions,
    migrations, sites and placement weight per shard — are not copied
    here: {!Report.of_parallel} reads them. *)
type result = {
  outputs : (int * Output.event) list;
      (** merged across shards, sorted by timestamp; each shard's in
          recording order *)
  handoffs : int;  (** frames delivered through rings *)
  ring_pushed : int;
      (** total ring pushes: frames and migrations (= pops after a
          clean run) *)
  ring_popped : int;
  ring_batch_fill_mean : float;
      (** frames per ring element: 1 when a frame was handed off, 0
          when none was *)
  parks : int;  (** blocking parks across all shards *)
  domains : int;
  wall_ns : int;
  dead_letters : int;
  suspected : (int * string) list;
  node_weights : float array;
      (** measured per-node VM instruction counts, for reports *)
  clean : bool;
      (** quiesced with every ring drained, a zero work count,
          every shard heap empty and every limbo empty — the sharding
          smoke and migration tests assert this together with
          [ring_pushed = ring_popped] *)
  timed_out : bool;
  trace : Tyco_support.Trace.t;
      (** one shard's own collector, or the merged shard-tagged one
          ({!Tyco_support.Trace.merge}); the disabled singleton unless
          [config.tracing] *)
  shard_stats : shard_stat array;
  sites : Site.t list;
      (** every site across all shards — safe to read because
          [Domain.join] happened before the result was built *)
}

val run :
  ?config:Cluster.config ->
  ?placement:(string -> int) ->
  ?policy:Placement.policy ->
  ?max_events:int ->
  ?max_wall_ms:int ->
  ?on_snapshot:(snapshot -> unit) ->
  ?snapshot_every_ms:int ->
  ?rebalance:rebalance ->
  ?force_migrations:(int * int) list ->
  domains:int ->
  (string * Tyco_compiler.Block.unit_) list ->
  result
(** [run ~domains units] executes the compiled sites on [domains]
    domains (plus the calling domain, which only coordinates
    termination).  [placement] maps site names to node ips (default
    round-robin); [policy] maps node ips to shards (default
    {!Placement.Mod} — see {!Placement.assign}; node counts below,
    equal to, or far above [domains] are all supported).  [max_events]
    bounds the event count {e summed over all shards} (default 10M,
    the same livelock-guard semantics as {!Tyco_net.Simnet.run} at
    one domain — not [domains * max_events]); [max_wall_ms] (default 120s)
    bounds wall time — exceeding it stops the run with
    [timed_out = true] instead of hanging.  [on_snapshot] is called
    from the coordinating domain roughly every [snapshot_every_ms]
    wall milliseconds (default 100) while the run is live.

    [rebalance] turns on dynamic rebalancing (see {!type:rebalance}).
    [force_migrations] is the deterministic test hook: a list of
    [(node ip, destination shard)] moves issued unconditionally —
    those whose command slot is free are posted before the domains
    spawn and are guaranteed to complete in a clean run.  Node 0 (the
    name-service host) cannot move; out-of-range entries raise
    [Invalid_argument], as does combining either option with
    [config.tracing] above one domain. *)
