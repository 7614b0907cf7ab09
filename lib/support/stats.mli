(** Execution metrics: counters and sample distributions.

    The experiment harness (DESIGN.md, E1–E10) reports instruction
    counts, thread granularities and latency distributions; this module
    is the shared collection machinery. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** {1 Sample distributions} *)

module Dist : sig
  type t

  val reservoir_cap : int
  (** Bound on retained reservoir samples (8192).  Beyond it, reservoir
      sampling (Vitter's algorithm R, driven by a {!Prng} seeded from
      the distribution's name, so runs are deterministic) keeps a
      uniform subset of the samples offered to it: {!count}/{!mean}/
      {!min}/{!max} stay exact streaming values, but {!percentile}
      becomes an estimate. *)

  val small_cap : int
  (** {!add_int} counts values in [\[0, small_cap)] (64) exactly, in
      one int array per distribution allocated on first use; only other
      values enter the reservoir, whose algorithm R counts only
      those. *)

  val create : string -> t
  val name : t -> string
  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** Records [n] exactly when it is in [\[0, small_cap)], else as
      [add d (float_of_int n)].  Hot loops pass an unboxed immediate
      instead of allocating a boxed float per sample. *)

  val count : t -> int
  (** Exact number of samples observed (not capped). *)

  val mean : t -> float
  (** Exact streaming mean; [0.] when empty. *)

  val min : t -> float
  (** Exact; total: [infinity] when empty (use {!summary_opt} before
      exporting — [infinity] is not valid JSON). *)

  val max : t -> float
  (** Exact; total: [neg_infinity] when empty. *)

  val samples : t -> float array
  (** Every retained value, unsorted: each exactly counted small
      integer as many times as it was seen, then the reservoir (every
      other sample below the cap, a uniform subset past it).  For
      tests. *)

  val percentile : t -> float -> float
  (** [percentile d 0.95] — linear interpolation between the two
      closest ranks of all samples (nearest-rank made tail percentiles
      jump whole sample-widths on capped reservoirs).  Exact while the
      reservoir is below {!reservoir_cap}; past it each retained sample
      stands for its share of the samples offered to the reservoir, and
      the exactly counted small values keep their exact ranks.  Raises
      [Invalid_argument] if no samples were recorded. *)

  (** A total snapshot for exporters: only constructed when at least
      one sample exists, so no field is ever [infinity]/[nan]. *)
  type summary = {
    s_n : int;
    s_mean : float;
    s_min : float;
    s_max : float;
    s_p50 : float;
    s_p95 : float;
    s_p99 : float;
    s_p999 : float;
  }

  val summary_opt : t -> summary option
  (** [None] when the distribution is empty — the safe path for JSON
      emitters (a site that never sampled emits [null], not [inf]). *)

  val absorb : t -> t -> unit
  (** [absorb t o] merges [o]'s observations into [t] ([o] unchanged):
      n/sum/min/max and the small-value counts merge exactly; [o]'s
      retained reservoir folds into [t]'s so merged percentiles
      estimate the union.  The quiescence-time merge path for
      per-domain histograms and per-site pools. *)

  val reset : t -> unit
  val pp_summary : Format.formatter -> t -> unit
end

(** {1 Registries} *)

type t
(** A named collection of counters and distributions, one per site, per
    cluster or shard (its transport and daemon), or per experiment run.
    A run counts only here; {!Metrics} exports a finished run's
    registry. *)

val create : unit -> t
val counter : t -> string -> Counter.t
(** Idempotent: returns the existing counter when the name is known. *)

val counter_value : t -> string -> int
(** Current value of a counter, 0 when it was never registered —
    read-only observation that does not create the counter. *)

val dist : t -> string -> Dist.t
val counters : t -> Counter.t list
val dists : t -> Dist.t list
val merge_into : into:t -> t -> unit
(** Quiescence-time merge of a registry into another: each counter adds
    its value to the counter of the same name in [into], each
    distribution {!Dist.absorb}s into the one of the same name, and
    names new to [into] are registered there, counters first.  The
    source is unchanged.  This is how the registries of a run's shards
    or nodes become one after the join. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
