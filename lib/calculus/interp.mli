(** Program-level driver for the reference semantics.

    Loads a (multi-site) surface program into a {!Network} state:
    [export]/[import] clauses are resolved per the paper's §4
    translation — an imported name [x from s] becomes the located
    identifier [s.x]; an exported definition group becomes a
    network-level [def s.D]; exported names keep their public names at
    their site.  Then runs the network reduction to quiescence.

    This is the oracle used by the differential tests: the byte-code VM
    must produce the same multiset of [io] outputs for every program. *)

type load_error = { msg : string }

exception Error of load_error

type loaded = {
  net : Network.t;
  exported_names : (string * string) list;  (** (site, name) *)
  exported_classes : (string * string) list;
}

val load : ?inputs:(string * int list) list -> Tyco_syntax.Ast.program -> loaded
(** Desugars, resolves import/export, decomposes every site body.
    Raises {!Error} on unresolved surface constructs. *)

val load_proc : Tyco_syntax.Ast.proc -> loaded
(** Single-site convenience ([site main]). *)

val run : ?max_steps:int -> ?inputs:(string * int list) list ->
  Tyco_syntax.Ast.program -> Network.t * Network.event list
(** [load] then reduce to quiescence. *)

val outputs : ?max_steps:int -> ?inputs:(string * int list) list ->
  Tyco_syntax.Ast.program -> (string * string * Network.value list) list
(** The chronological [io] events of a full run.  The program is not
    type-checked: a dynamic error it reaches raises {!Network.Stuck}. *)
