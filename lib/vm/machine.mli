(** The execution engine of one site's virtual machine (paper Fig. 3).

    The machine owns the architecture the paper lists: a {e program
    area} (a {!Tyco_compiler.Link.area}, growable by dynamic linking),
    a {e heap} of channels, a {e run-queue} of threads, a {e local
    variable table} (each thread's frame) and an {e operand stack}
    (one machine-owned growable array, reused across threads — a
    thread runs to completion and leaves it empty, so nothing is
    allocated per thread).

    It runs each block as fused ops ({!Fuse}), built the first time a
    thread of the block is spawned: a run of expression instructions
    is one op that computes its values straight from the frame, and
    every other instruction is one op.  Each op counts the byte-code
    instructions it covers and their summed cost, so {!run}'s counts
    and virtual time are those of the byte-code.  A spawn
    ([instof], or a message meeting an object) builds the new thread's
    frame in one allocation, straight from the operand stack or the
    message.  Every spawn still gets a fresh frame and thread record:
    reusing them on self-tail-calls allocated less but raised a
    parallel workload's heap high-water mark (DESIGN.md, "Fused step
    loop").

    It is deliberately network-blind: instructions whose target is a
    network reference — [trmsg]/[trobj] on a remote name, [instof] on a
    remote class, [export]/[import] — do not touch the network here.
    They append a {!remote_op} to the machine's outgoing-operations
    queue, which the embedding site drains, serializes (translating
    references through its export table) and hands to the node's TyCOd
    daemon.  Symmetrically, the site {e injects} incoming work with
    {!inject_msg}/{!inject_obj}/{!spawn}.

    A {e thread} is one byte-code block plus its frame; threads run to
    completion (they contain no blocking instructions — waiting is
    represented by parked messages/objects in channels), which is what
    keeps context switches fast (paper §1). *)

type t

(** Remote effects surfaced to the embedding site, in program order. *)
type remote_op =
  | Rmsg of Tyco_support.Netref.t * string * Value.t array
      (** remote method invocation — the SHIPM path *)
  | Robj of Tyco_support.Netref.t * Value.obj
      (** object migration — the SHIPO path *)
  | Rfetch of Tyco_support.Netref.t * Value.t array
      (** instantiation of a remote class: FETCH request, instantiation
          args parked until the code arrives *)
  | Rexport_name of string * Value.chan
  | Rexport_class of string * Value.cls
  | Rimport of {
      site : string;
      name : string;
      is_class : bool;
      cont : int;
      captured : Value.t list;
    }

exception Error of string
(** Dynamic protocol errors: no such method, arity mismatch, ill-typed
    builtin operands, [Instof] of a non-class…  The same exception as
    {!Fuse.Error}. *)

val create :
  ?name:string ->
  ?trace:Tyco_support.Trace.t ->
  ?track:int ->
  Tyco_compiler.Link.area ->
  t
(** [trace] is the site's event collector ({!Tyco_support.Trace.disabled}
    by default — every instrumentation point is then one load-and-branch
    and all spans stay [null_span]); [track] is the collector track id
    this machine's events are emitted on (the site's id). *)

val area : t -> Tyco_compiler.Link.area

(** {1 Causal tracing} *)

val trace : t -> Tyco_support.Trace.t

val set_clock : t -> int -> unit
(** The machine does not own time: the embedding site sets the virtual
    clock (ns) before [run]/injections so emitted events carry simulation
    timestamps.  [run] advances it by each thread's cost. *)

val clock : t -> int

val set_current_span : t -> Tyco_support.Trace.span -> unit
(** Install the span causally responsible for whatever the machine does
    next, around an injection (e.g. the span of the packet being
    delivered); inside [run] it is the running thread's span.  Threads
    spawned, messages parked and remote ops pushed all inherit it as
    parent. *)

val new_chan : t -> string -> Value.chan
val builtin_chan : t -> string -> (string -> Value.t list -> unit) -> Value.chan

val spawn : t -> block:int -> env:Value.t list -> unit
(** Enqueue a thread whose frame starts with the given values (locals
    beyond them are allocated per the block's slot count). *)

val spawn_entry : t -> entry:int -> io:Value.chan -> unit

val inject_msg : t -> Value.chan -> string -> Value.t list -> unit
(** Deliver a message to a local channel (local [trmsg]); fires a
    waiting object or parks.  Cold entry point: the label is interned
    into the area's label table here.  The VM's own hot paths carry the
    interned id and never re-hash the string. *)

val inject_msg_id : t -> Value.chan -> lid:int -> Value.t array -> unit
(** Hot-path variant of {!inject_msg} for callers that already hold the
    interned label id (see {!Tyco_compiler.Link.intern}). *)

val inject_obj : t -> Value.chan -> Value.obj -> unit

val instantiate : t -> Value.cls -> Value.t list -> unit
(** Run one instantiation (used for fetched classes and directly by
    [instof]). *)

val instantiate_args : t -> Value.cls -> Value.t array -> unit
(** {!instantiate} without the list→array conversion, for callers that
    already hold the argument array (e.g. parked FETCH arguments). *)

val runnable : t -> bool

val run : t -> budget:int -> int * int
(** Execute threads until the run-queue empties or the instruction
    budget is exhausted (threads are atomic, so slightly more than
    [budget] instructions may run).  Returns
    [(instructions executed, virtual-time cost in ns)] — the cost is
    the sum of {!Tyco_compiler.Instr.cost} over executed instructions
    and drives the simulation clock. *)

val pop_remote_op : t -> remote_op option

val pop_remote_traced : t -> (remote_op * Tyco_support.Trace.span) option
(** Like {!pop_remote_op} but also returns the span of the thread that
    pushed the op — the parent for the network span the site creates. *)

(** {1 Metrics} *)

val stats : t -> Tyco_support.Stats.t
(** Counters: [instructions], [threads], [comm_local], [msgs_parked],
    [objs_parked], [insts], [defgroups], [remote_ops];
    distributions [thread_len] (instructions per thread — experiment
    E7's granularity evidence) and [runq_depth] (run-queue length
    sampled at each [run] call — deep queues are the latency-hiding
    evidence of paper §5). *)
