(** Mutable growable ring-buffer deques.

    The virtual machine's run-queue and the sites' incoming/outgoing
    queues are hot paths: the VM context-switches every few tens of
    instructions (paper §1), so enqueue/dequeue must be O(1) with no
    allocation in the steady state. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 16) is rounded up to a power of two, at least
    1, so indices wrap with a mask. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a option
val pop_back : 'a t -> 'a option

val pop_front_exn : 'a t -> 'a
(** Non-allocating pop for hot paths where the caller has already
    checked {!is_empty} (the option-returning variants allocate a
    [Some] per call).  Raises [Invalid_argument] when empty. *)

val pop_back_exn : 'a t -> 'a
val peek_front : 'a t -> 'a option

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit

val to_list : 'a t -> 'a list
(** Front-to-back order. *)

val of_list : 'a list -> 'a t
