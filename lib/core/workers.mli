(** The run skeleton under {!Par_runner} and {!Tcp_runner}: one domain
    per worker (a shard, a TCP node) until no work exists anywhere.

    One atomic counts, after Mattern, a unit per worker that has work
    ({!hold}, {!settle}) and one per piece of work between workers
    ({!count}): a ring element, a frame on a socket, a posted command,
    a node in transit.  Work is counted before the work that created it
    is uncounted, so the count is zero only at global quiescence, and
    the update that makes it zero wakes the coordinator.  An idle
    worker polls for 50 µs, then sets its [parked] flag, looks once
    more for work, and blocks on its descriptors and its bell; a giver
    makes work visible before it reads the flag ({!ring}), so with
    sequentially consistent atomics no wake-up is lost. *)

type t
type worker

val create : unit -> t
val worker : t -> id:int -> worker

val count : t -> int -> unit
val uncount : t -> int -> unit
val work : t -> int
val stopped : t -> bool

val hold : worker -> unit
(** Take the worker's own unit unless it holds it; call before
    uncounting work the worker has just taken in. *)

val settle : worker -> busy:bool -> unit
(** Hold the worker's unit if [busy], else give it up. *)

val ring : worker -> unit
(** Wake the worker if it is parked. *)

val parks : worker -> int
(** Blocking parks the worker took; read after {!join}. *)

val start :
  ?ready:(unit -> bool) -> ?fds:(unit -> Unix.file_descr list) ->
  worker -> pass:(unit -> bool) -> unit
(** Run [pass ()] in a domain of its own until the run stops, parking
    after 50 µs of passes that found nothing to do.  A parked worker
    also wakes when one of [fds ()] is readable; [ready ()] is its last
    look for work before it blocks.  An exception stops the run. *)

val wait : t -> deadline:float -> ?tick:(unit -> float) -> unit -> bool
(** Block until the work count is zero or a worker failed ([false]), or
    the [Unix.gettimeofday] [deadline] passed ([true]).  [tick ()] runs
    when the wait begins and at every wake-up, and returns the seconds
    until it wants to run again. *)

val join : t -> fail:(int -> string -> exn) -> unit
(** Stop the run, ring every bell, join every worker, close the pipes,
    and raise [fail id message] for the first failed worker.  The
    message is that of a [Failure], {!Site.Protocol_error} or
    {!Tyco_vm.Machine.Error}; [malformed frame: m] for
    {!Tyco_support.Wire.Malformed}; else [Printexc.to_string]. *)
