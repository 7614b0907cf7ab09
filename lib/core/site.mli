(** A DiTyCO site: the paper's Figure 3 put together.

    A site owns an extended TyCO virtual machine (program area, heap,
    run-queue), an incoming packet queue fed by its node's TyCOd, an
    I/O port, and the two export tables (channels and classes) that
    implement the two-step reference translation of §5:

    - {e outgoing}: local channel/class values leaving the site are
      registered in the export table and replaced by network
      references; every other value travels untouched;
    - {e incoming}: references owned by this site are resolved back to
      heap pointers through the export table; foreign references stay
      symbolic.

    The site also runs the mobility protocols: object shipment carries
    the transitively-needed byte-code (linked on arrival, with a
    per-origin cache so repeated shipments do not bloat the program
    area), and class fetches park the pending instantiation until the
    FETCH reply is linked — the VM meanwhile runs other threads, which
    is the latency-hiding behaviour measured in experiment E5. *)

type t

(** Type descriptors for the dynamic half of the paper's combined
    static/dynamic checking (§7): descriptors of the site's exports
    (sent with name-service registrations) and the local usage
    expectations of its imports (checked when a lookup resolves). *)
type annotations = {
  a_export_rtti : (string * Tyco_types.Rtti.t) list;
  a_import_expect : ((string * string) * Tyco_types.Rtti.t) list;
}

val no_annotations : annotations

(** End-to-end recovery of the request/reply protocols (FETCH and
    name-service lookups): an unanswered request is re-sent under
    exponential backoff ([r_timeout_ns], [r_backoff]) and, after
    [r_max_tries] sends, fails gracefully — a ["fetch-failed"] /
    ["import-failed"] output event plus a suspicion report — instead
    of hanging forever on a dead peer. *)
type retry = {
  r_timeout_ns : int;
  r_backoff : float;
  r_max_tries : int;
}

val default_retry : retry
(** 4 ms initial deadline, doubling, 6 tries (~4 s virtual horizon). *)

(** Resource lifecycle: bounds on the state a site keeps on behalf of
    its peers, so the resident set tracks the live working set instead
    of growing with traffic.

    - [lc_lease_ns]: leases on exported channels/classes.  An exporter
      renews an entry on every use it sees — the export itself, every
      inbound message, object or FETCH that resolves it, every
      [Prelease] naming it — to its own clock plus [2 * lc_lease_ns],
      and reclaims entries past their expiry: their heap identifiers
      retired, the slots reused under a fresh generation.  An importer
      refreshes only the uses its exporter cannot see — passing a
      foreign reference to another site, instantiating a fetched class
      from its cache — with one [Prelease] per exporter per tick; and
      drops fetched classes unused for [lc_lease_ns].  Receiving a
      reference, sending to it and importing it send nothing.  The
      protocol assumes a use or refresh reaches the exporter within
      [lc_lease_ns] of being made.  [0] (default) disables leases
      entirely: exports live forever and no refresh is ever sent.
      Name-service registrations are pinned and never expire.
    - [lc_refresh_ns]: cadence of the lifecycle tick, which reclaims
      expired exports and sends the refreshes; defaults to a quarter of
      the lease period.
    - [lc_code_cache]: capacity of each receiver-side linking cache
      (LRU; a miss re-links from the shipped code).
    - [lc_done_horizon_ns]: how long answered-request ids stay in the
      duplicate-suppression set; defaults to twice the sender's
      worst-case retry schedule. *)
type lifecycle = {
  lc_lease_ns : int;
  lc_refresh_ns : int;
  lc_code_cache : int;
  lc_done_horizon_ns : int;
}

val default_lifecycle : lifecycle
(** Leases off, 256-entry code caches, derived done-horizon. *)

val create :
  ?annotations:annotations ->
  ?inputs:int list ->
  ?retry:retry ->
  ?lifecycle:lifecycle ->
  ?schedule:(delay:int -> (unit -> unit) -> unit) ->
  ?on_suspect:(string -> unit) ->
  ?trace:Tyco_support.Trace.t ->
  name:string ->
  site_id:int ->
  ip:int ->
  send:(Tyco_support.Trace.span -> Tyco_net.Packet.t -> unit) ->
  on_output:(Output.event -> unit) ->
  unit_:Tyco_compiler.Block.unit_ ->
  unit ->
  t
(** [send] hands a packet to the node's daemon together with the
    packet's causal span ({!Tyco_support.Trace.null_span} when tracing
    is off); [on_output] observes I/O port events (they are also
    recorded locally).  [schedule] provides virtual timers: when
    present, outstanding FETCH and import requests are given deadlines
    per [retry] (without it, the seed behaviour: requests wait
    forever).  [on_suspect] hears the description of the peer each time
    a request is abandoned.  [trace] is the run's event collector
    (default {!Tyco_support.Trace.disabled}); the site registers a
    track named after itself and emits its VM and protocol events
    there. *)

val name : t -> string
val site_id : t -> int
val ip : t -> int

val start : t -> unit
(** Spawn the entry thread (slot 0 = the I/O port). *)

val deliver :
  ?ctx:Tyco_support.Trace.span -> ?now:int -> t -> Tyco_net.Packet.t -> unit
(** Called by the daemon: enqueue an incoming packet.  [ctx] is the
    span the packet travelled under (defaults to the null span); [now]
    the virtual arrival time, the baseline of the queue-wait sample
    taken when the packet is finally processed. *)

val busy : t -> bool
(** Has runnable threads or unprocessed incoming packets. *)

val outstanding : t -> int
(** In-flight fetch and name-service requests originated here. *)

val pump : ?now:int -> t -> quantum:int -> int
(** One execution quantum: drain the incoming queue, run up to
    [quantum] VM instructions, drain the outgoing remote operations.
    Returns the virtual-time cost in ns.  [now] is the quantum's
    virtual start time (default [0]); it seeds the VM clock so trace
    events and the [queue_wait_ns]/[execute_ns] distributions carry
    simulation timestamps. *)

val kill : t -> unit
(** Site failure injection: drops all state; subsequent deliveries are
    discarded. *)

val alive : t -> bool
val outputs : t -> Output.event list

val stats : t -> Tyco_support.Stats.t
(** Shared with the VM's registry.  Besides the machine's counters it
    holds the site's protocol counters and the two site-side halves of
    the latency breakdown: distributions [queue_wait_ns] (arrival to
    processing of each incoming packet) and [execute_ns] (VM cost per
    pump quantum). *)

val vm : t -> Tyco_vm.Machine.t

(** Snapshot of the site's resident protocol state, for reports and
    the soak benchmarks.  [allocated = live + reclaimed] per table. *)
type mem_stats = {
  m_chan_live : int;
  m_chan_allocated : int;
  m_chan_reclaimed : int;
  m_class_live : int;
  m_class_allocated : int;
  m_class_reclaimed : int;
  m_done_reqs : int;       (** duplicate-suppression entries resident *)
  m_obj_cache : int;       (** object-shipment linking cache occupancy *)
  m_grp_cache : int;       (** class-fetch linking cache occupancy *)
  m_fetch_cache : int;     (** fetched classes resident *)
  m_held : int;
      (** foreign references marked for the next refresh, plus fetched
          classes whose last use is tracked (leases on) *)
}

val memory : t -> mem_stats

exception Protocol_error of string
(** Dynamic-check failures on incoming packets (unknown heap id, kind
    mismatch, malformed code).  The paper's combined static/dynamic
    scheme guarantees typed programs never trigger these.  A reference
    to an identifier the site {e reclaimed} is different: it drops the
    packet with a ["stale-ref"] output event instead of raising —
    expected behaviour when lease reclamation races in-flight
    traffic. *)
