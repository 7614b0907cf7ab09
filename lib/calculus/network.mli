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

val register_defs : t -> site -> Term.defn list -> t
(** Install a definition group under its public class names at a site
    (the network-level [def s.D in ...] binder).  Use this only for
    groups whose free names are already resolved; groups nested under
    binders must go through {!mark_exports} + a regular [Def] term so
    the binders freshen first. *)

val mark_exports : t -> site -> string list -> t
(** Declare that the next [def] at the site defining these class names
    is exported: when {!add_proc} decomposes it, a public alias group
    is registered under the original names (with the enclosing [new]
    binders correctly freshened into the bodies). *)

val atoms : t -> (site * atom) list
val outputs : t -> (site * string * value list) list
(** Chronological [io] events. *)

val step : t -> (event * t) option
(** One reduction step, chosen deterministically (local reductions are
    preferred over shipments, shipments over fetches; ties broken by
    atom age).  [None] when the network is quiescent. *)

val all_steps : t -> (event * t) list
(** Every redex the calculus admits from this state — any message may
    meet any waiting object at its channel, unlike [step]'s FIFO
    strategy.  The verification tools ({!Equiv}) explore this relation
    exhaustively.  Empty iff [step] returns [None]. *)

exception Stuck of string
(** Raised on dynamic errors: wrong label arity, no such method at a
    channel with an object (protocol error), bad expression operand.
    Typed programs do not raise. *)

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
val pp_value : Format.formatter -> value -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
