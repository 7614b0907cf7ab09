(** Discrete-event simulation core with a cluster topology.

    The whole distributed run-time executes inside one deterministic
    event loop: site execution quanta, packet deliveries and name
    service processing are all events on a single virtual clock
    (nanoseconds).  Determinism — same program, same seed, same trace —
    is what allows the differential tests against the reference
    semantics, and the virtual clock is what the simulated-time
    experiments (E3–E6, E9, E10) report.

    {!topology} describes the paper's Figure 1 shape: nodes connected
    by an intra-node model (shared memory), a cluster switch model
    (Myrinet) and an external model (Fast Ethernet) for nodes marked
    external. *)

type t

type topology = {
  intra_node : Latency.t;   (** between sites of one node *)
  cluster : Latency.t;      (** between cluster nodes *)
  external_ : Latency.t;    (** to/from nodes outside the switch *)
  external_ips : int list;  (** nodes reached via [external_] *)
}

val default_topology : topology
(** Fig. 1: Myrinet switch fabric, shared-memory local, Fast Ethernet
    for external nodes (none by default). *)

(** {1 Fault model}

    Per-link failure behaviour of the switch fabric, driven by the
    simulation's deterministic PRNG: independent per-packet drop,
    duplication and reordering probabilities plus timed symmetric
    partitions.  Intra-node (same-ip) traffic is never faulted. *)

type partition = {
  p_a : int;      (** one end (node ip) *)
  p_b : int;      (** other end (node ip); the cut is symmetric *)
  p_from : int;   (** first virtual ns of the cut (inclusive) *)
  p_until : int;  (** first virtual ns after healing (exclusive) *)
}

type fault_model = {
  drop : float;        (** per-copy drop probability, [0,1] *)
  duplicate : float;   (** probability a packet is transmitted twice *)
  reorder : float;     (** probability a copy gets extra random delay *)
  reorder_ns : int;    (** bound on that extra delay *)
  partitions : partition list;
}

val no_faults : fault_model
(** Exactly-once, in-order delivery — the seed behaviour. *)

(** Outcome of sending one packet over a faulty link: the delays of the
    surviving copies (possibly none, possibly two when duplicated),
    plus what happened, for the caller's statistics. *)
type verdict = {
  v_delays : int list;
  v_dropped : int;
  v_duplicated : bool;
  v_reordered : int;
}

val faulted_link : t -> src_ip:int -> dst_ip:int -> bool
(** [false] when transmissions on this link can never be faulted (the
    fault model is {!no_faults}, or the link is intra-node): callers
    may then schedule the base delay directly and skip
    {!fault_verdict}'s allocation without changing PRNG consumption. *)

val fault_verdict : t -> src_ip:int -> dst_ip:int -> base_delay:int -> verdict
(** Roll the fault dice for one transmission.  With [no_faults] (or on
    an intra-node link) this returns [base_delay] unchanged and never
    consults the PRNG, preserving seed-for-seed determinism of
    fault-free runs. *)

val partitioned : t -> src_ip:int -> dst_ip:int -> bool
(** Is the link cut by a partition at the current virtual time? *)

val create : ?topology:topology -> ?faults:fault_model -> seed:int -> unit -> t
val now : t -> int
val prng : t -> Tyco_support.Prng.t
val topology : t -> topology
val faults : t -> fault_model

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Run an action [delay] ns from now.  FIFO among equal timestamps. *)

val link : t -> src_ip:int -> dst_ip:int -> Latency.t
val packet_delay : t -> src_ip:int -> dst_ip:int -> bytes:int -> int

val run : t -> ?max_events:int -> unit -> int
(** Drain the event queue; returns the number of events processed.
    Raises [Failure] when the budget of [max_events] (default
    10_000_000) is spent with events still pending — a queue that
    drains in exactly [max_events] events completes normally. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val next_time : t -> int option
(** Timestamp of the next pending event. *)

val pending : t -> int
(** Events scheduled and not yet processed. *)

val events_processed : t -> int
