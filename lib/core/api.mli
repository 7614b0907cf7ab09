(** The public façade of the DiTyCO run-time system.

    Pipeline: {!parse} → {!typecheck} → {!compile} → {!run_program}
    (or just {!run_source} for all four).  The reference semantics is
    reachable through {!run_reference} — every typed program must
    produce the same multiset of I/O events under both engines, which
    {!agree_with_reference} checks directly. *)

type error =
  | Parse_error of string
  | Type_error of string
  | Compile_error of string
  | Runtime_error of string

exception Error of error

val error_message : error -> string

val parse : ?file:string -> string -> Tyco_syntax.Ast.program
(** Raises [Error (Parse_error _)]. *)

val typecheck : Tyco_syntax.Ast.program -> Tyco_types.Infer.info
val compile : Tyco_syntax.Ast.program -> (string * Tyco_compiler.Block.unit_) list

type result = {
  outputs : (int * Output.event) list; (** timestamped, chronological *)
  virtual_ns : int;        (** total simulated time *)
  sim_events : int;        (** discrete events processed *)
  packets : int;
  bytes : int;
  cluster : Cluster.t;     (** for further inspection *)
}

val run_program :
  ?config:Cluster.config ->
  ?placement:(string -> int) ->
  ?max_events:int ->
  ?until:int ->
  ?inputs:(string * int list) list ->
  ?typecheck:bool ->
  ?isolated:bool ->
  Tyco_syntax.Ast.program ->
  result
(** Compile, place, and run a program on a fresh simulated cluster.
    [until] bounds virtual time (for perpetual programs); [typecheck]
    defaults to [true].  With [isolated] (default [false]) each site is
    type-checked {e separately} and the runtime performs the paper's
    dynamic type checking: exports register with type descriptors, and
    an import whose local usage is incompatible with the exporter's
    descriptor fails with a protocol error instead of misbehaving. *)

val run_source :
  ?config:Cluster.config ->
  ?placement:(string -> int) ->
  ?max_events:int ->
  ?until:int ->
  string ->
  result

val run_parallel :
  ?config:Cluster.config ->
  ?placement:(string -> int) ->
  ?policy:Placement.policy ->
  ?max_events:int ->
  ?on_snapshot:(Par_runner.snapshot -> unit) ->
  ?snapshot_every_ms:int ->
  ?rebalance:Par_runner.rebalance ->
  ?force_migrations:(int * int) list ->
  domains:int ->
  Tyco_syntax.Ast.program ->
  Par_runner.result
(** Run on [domains] domains ({!Par_runner.run}).  One domain is one
    shard, the deterministic engine: bit-identical to {!run_program},
    timestamps, virtual time and trace included (test-pinned).  More
    domains give the same output multiset with interleaving-dependent
    timestamps; [policy] picks the node-to-shard placement
    ({!Placement.Mod} by default), [on_snapshot] / [snapshot_every_ms]
    stream coordinator-side mid-run observations, [rebalance] turns on
    dynamic node migration and [force_migrations] issues deterministic
    test moves.

    A crash inside one shard's domain surfaces here as
    [Error (Runtime_error m)] with [m] naming the failing shard
    (["shard N failed: ..."]), never as a bare exception from
    [Domain.join]. *)

val load_isolated :
  ?placement:(string -> int) -> Cluster.t -> Tyco_syntax.Ast.program -> unit
(** Type-check each site in isolation, compile, and submit to an
    existing (possibly already running) cluster — the incremental
    TyCOsh workflow.  Cross-program imports are validated dynamically
    when they resolve. *)

val run_reference :
  ?max_steps:int -> ?inputs:(string * int list) list ->
  Tyco_syntax.Ast.program -> Output.event list
(** The calculus-level oracle (reference interpreter).  [inputs] feeds
    each site's I/O port, as in {!run_program}. *)

val agree_with_reference :
  ?max_steps:int -> ?inputs:(string * int list) list ->
  Tyco_syntax.Ast.program -> bool
(** Differential check: VM runtime vs reference semantics, compared as
    output multisets. *)
