(** Machine-readable run summaries.

    Experiment pipelines want the numbers without scraping text:
    {!of_result} snapshots a finished run — totals, outputs with
    virtual timestamps, per-site VM statistics — and {!to_json} emits
    it as JSON (a minimal self-contained emitter; no external
    dependency).  [tycosh --json] prints it. *)

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
      deadline; nonzero deadlines trade this latency for fill). *)
type breakdown = {
  b_queue_wait : Tyco_support.Stats.Dist.summary option;
  b_wire : Tyco_support.Stats.Dist.summary option;
  b_retransmit : Tyco_support.Stats.Dist.summary option;
  b_execute : Tyco_support.Stats.Dist.summary option;
  b_flush_wait : Tyco_support.Stats.Dist.summary option;
}

(** Resident protocol state summed over sites (live export-table and
    cache occupancy, duplicate-suppression entries, and
    [mem_held_imports]: foreign references marked for the next lease
    refresh plus fetched classes whose last use is tracked) plus
    lifetime reclamation counters ([mem_held_dropped] counts fetched
    classes dropped after a lease period unused).  A bounded run
    shows flat [*_live] numbers against growing [*_allocated] /
    [mem_ids_reclaimed] ones.  The [mem_gc_*] fields are the host
    process's {!Gc.quick_stat}, meaningful for wall-clock runs. *)
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
  mem_gc_minor_words : float;
  mem_gc_major_words : float;
  mem_gc_heap_words : int;
}

type t = {
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
  outputs : (int * Output.event) list;
  sites : site_stats list;
  breakdown : breakdown;
  suspected_failures : (int * string) list;
  memory : memory;
}

val of_result : Api.result -> t
val of_cluster : Cluster.t -> t

val to_json : t -> string
(** Compact single-line JSON. *)

val par_json : Par_runner.result -> string
(** JSON for a multi-domain run ({!Par_runner}): domain count, ring
    handoff and park counters, a per-shard section
    ({!Par_runner.shard_stat}: ring traffic, occupancy high-water,
    backpressure drains, parks), a latency breakdown with
    p50/p95/p99/p999 per component (queue-wait and execute pooled over
    all shards' sites, cross-domain handoff latency pooled over the
    shards), and merged outputs.  [tycosh --json --domains N] (N > 1)
    prints this instead of {!to_json}. *)

val par_metrics : Par_runner.result -> Tyco_support.Metrics.t
(** The registry [tycosh --domains N --metrics-out] exports: every
    shard's registry ({!Par_runner.shard_stat}'s [ss_stats]) merged,
    plus ["ring_pushed"], ["ring_popped"], ["ring_hiwater"] (the
    shards' outbound high-waters, summed), ["parks"] and
    ["placement_weight"] (the shards' rounded weights, summed).  A
    fresh registry, built only when called. *)

val json_escape : string -> string
(** Exposed for tests: JSON string escaping. *)
