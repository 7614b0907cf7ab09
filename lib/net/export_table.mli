(** Per-site export tables (paper §5).

    “An export table is needed to map network references into heap
    pointers for all local variables that leave the site.”

    The table assigns stable heap identifiers to local entities (keyed
    by their heap uid, so re-exporting the same channel reuses its
    identifier) and resolves identifiers of incoming references — the
    second step of the two-step translation.

    Entries can be {!remove}d (lease reclamation): the identifier is
    retired for good and its slot free-listed under a fresh reuse
    generation, so a later export reusing the slot yields a {e new}
    identifier — a stale reference to the removed entry resolves to
    [None] instead of silently aliasing the new occupant.
    {!was_allocated} tells a stale identifier (allocated once, since
    reclaimed) from one that was never issued, so the protocol layer
    can fail the former visibly as a ["stale-ref"] and treat only the
    latter as a protocol error.

    Entries can also carry a lease ({!renew}, {!pin}, {!expire}): the
    expiry lives in the entry's slot, and a due-time queue finds the
    expired ones, so neither a renewal nor a sweep touches the entries
    that are not due. *)

type 'a t

val create : unit -> 'a t

val export : 'a t -> uid:int -> 'a -> int
(** Returns the entity's heap identifier, allocating one on first
    export. *)

val resolve : 'a t -> int -> 'a option
(** Heap identifier to local entity; [None] for reclaimed or unknown
    identifiers. *)

val remove : 'a t -> int -> bool
(** Drop a live entry, retiring its identifier.  [false] if the
    identifier was not live. *)

val live : 'a t -> int
(** Entries currently resolvable — the table's occupancy. *)

val allocated : 'a t -> int
(** Lifetime identifier allocations (monotone); [allocated = live +
    reclaimed] always holds. *)

val reclaimed : 'a t -> int
(** Lifetime {!remove}s (monotone). *)

val was_allocated : 'a t -> int -> bool
(** Whether the identifier's slot was ever issued: [true] for every
    live or reclaimed identifier, [false] for identifiers this table
    never produced. *)

val renew : 'a t -> int -> until:int -> unit
(** Set a live entry's lease to expire at virtual time [until].  The
    first renewal queues the entry; later ones only move its expiry.
    No effect on pinned or dead identifiers.  Entries never renewed
    carry no lease and never expire. *)

val pin : 'a t -> int -> unit
(** Exempt a live entry from expiry for good. *)

val expire : 'a t -> now:int -> (int -> 'a -> unit) -> int
(** [expire t ~now f] removes every leased entry whose expiry is at or
    before [now], in identifier order (so the free list, and with it
    every later identifier, is deterministic), calling [f id v] before
    each removal; returns how many it removed.  Its cost grows with the
    number of queue entries that fell due, not with the table. *)
