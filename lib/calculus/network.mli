(** The network reduction relation (paper §3), as an executable
    symbolic machine.

    A network state is kept in a structural-congruence normal form:
    every located process is decomposed into {e atoms} — messages,
    objects and instantiations — with [new] binders freshened
    ([Split]/[New]/[Def] read left-to-right) and [def] groups lifted to
    a network-level definition table.  The six reduction axioms then
    act on atoms:

    - local communication (COMM) and instantiation (INST), under LOC;
    - SHIPM / SHIPO — a message/object prefixed by a remote located
      name moves to its home site, its free identifiers translated by
      σ (upload) composed with localization at the destination;
    - FETCH — instantiating a class defined at another site copies the
      whole definition group, σ-translated, into the local table.

    Messages sent to the builtin name [io] become observable outputs
    rather than atoms; they are the observations compared against the
    byte-code VM in the differential tests.

    The structure is purely functional: each step returns a new state,
    so tests can snapshot and branch executions. *)

type site = string

type value =
  | Vid of Term.id
  | Vint of int
  | Vbool of bool
  | Vstr of string

type atom =
  | Amsg of Term.id * string * value list
  | Aobj of Term.id * Term.method_ list
  | Ainst of Term.cid * value list

type event =
  | Ecomm of site * string * string       (** site, channel, label *)
  | Einst of site * string                (** site, class *)
  | Eship_msg of site * site * string     (** from, to, channel *)
  | Eship_obj of site * site * string
  | Efetch of site * site * string        (** to, from, class *)
  | Eoutput of site * string * value list (** io method and arguments *)

type t

val empty : t

val with_inputs : t -> (site * int list) list -> t
(** Supply the integers each site's I/O port will hand to [io!readi]
    requests, in order (paper §5: the I/O port also feeds data {e to}
    programs).  A read with no input left blocks silently. *)

val add_proc : t -> site -> Term.proc -> t
(** Decompose a process into atoms at the given site.  [export]/[import]
    must already be resolved to located identifiers (see {!Interp}). *)

val mark_exports : t -> site -> string list -> t
(** Declare that the next [def] at the site defining these class names
    is exported: when {!add_proc} decomposes it, a public alias group
    is registered under the original names (with the enclosing [new]
    binders correctly freshened into the bodies). *)

val atoms : t -> (site * atom) list
val outputs : t -> (site * string * value list) list
(** Chronological [io] events. *)

val step : t -> (event * t) option
(** One reduction step: the first redex of {!all_steps}, fired.  [None]
    when the network is quiescent.  Raises {!Stuck} when that redex is
    a dynamic error. *)

val all_steps : t -> (event * t) list
(** The reduction relation: every redex the calculus admits from this
    state, fired, in the order {!step} picks them — COMM (the oldest
    message first, then the oldest object waiting at its channel; any
    message may meet any object there), local INST, SHIPM, SHIPO,
    FETCH, ties broken by atom age.  Its head is {!step}'s step: the
    same event and a successor with the same {!key}.  The verification
    tools ({!Equiv}) explore it exhaustively.  Empty iff the state is
    quiescent; raises {!Stuck} when any of its redexes is a dynamic
    error. *)

exception Stuck of string
(** Raised on dynamic errors, with the same message from {!step} and
    {!all_steps}: wrong label or class arity, no such method at a
    channel with an object (protocol error), an unbound class, a bad
    expression operand, a value passed where a channel is expected.
    Typed programs can still reach division or modulo by zero. *)

val run : ?max_steps:int -> t -> t * event list
(** Reduce to quiescence.  Raises [Failure] if [max_steps] (default
    1_000_000) is exceeded — the SETI-style perpetual programs must be
    run with an explicit bound. *)

val key : t -> string
(** Everything but the outputs that the state's reductions depend on:
    its atoms as a multiset (objects with their method bodies, channel
    names as they are), the definition table, and the pending io
    inputs and exports.  Equal keys mean the same reductions, up to
    the names each state creates next; states equal only up to
    renaming their fresh names get different keys. *)

val quiescent : t -> bool
(** No redex is left: {!step} would return [None].  Builds no
    successor. *)

val pp_value : Format.formatter -> value -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
