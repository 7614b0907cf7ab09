(** A real-network deployment of the DiTyCO runtime.

    The default runtime multiplexes everything into one deterministic
    discrete-event simulation (see DESIGN.md).  This module instead
    realizes the paper's §5 deployment literally, on the loopback
    network: every node is an OCaml 5 domain owning a TCP listening
    socket (its "IP address" is a port) and running the {!Node} daemon
    (TyCOd) — the same daemon the simulated engines run — over those
    sockets.  Sites run inside their node's domain, so nodes execute
    truly in parallel on a multicore host, and the centralized name
    service lives on node 0.  Each node's loop accepts connections,
    reads length-prefixed frames and hands them to the daemon, runs the
    daemon's deferred work (self-addressed packets, name-service
    replies), pumps its own busy sites, and writes what they sent in one
    write per peer.

    Every ordered pair of nodes is connected during set-up; a node
    tells a peer's connection from an outside one by its address.

    Execution is {e not} deterministic (the OS schedules the domains),
    so tests compare output multisets against the simulated runtime.
    Termination and parking are {!Workers}': the work count holds one
    unit per node that has work (busy sites, unanswered imports and
    fetches, deferred daemon work) plus one per frame a node queued for
    a peer that the peer has not read yet, so a run stops at its last
    event.  Frames from a connection that is not a peer node's are
    delivered but never counted.  An idle node polls for 50 µs, then
    blocks in [select] on its sockets until one is readable or the run
    stops; a peer that closes its socket leaves the poll set.

    Failures are loud: a frame that does not decode
    ([malformed frame: ...]), a length prefix above a fixed cap, or a
    site's runtime error stops every node, and {!run} re-raises it at
    join as {!Node_failure}.

    Limitations (documented, by design): no virtual clock (wall time
    only), no failure injection, and perpetual programs must be
    bounded with [timeout_ms]. *)

exception Node_failure of int * string
(** An exception that stopped one node's domain, re-raised at join as
    [(node id, message)].  {!run_program} maps it to
    [Api.Error (Runtime_error "node N failed: ...")]. *)

type result = {
  outputs : Output.event list;
      (** node by node, each in arrival order (racy across sites) *)
  packets : int;                 (** TCP packets exchanged *)
  wall_ns : int;                 (** elapsed wall-clock time *)
  timed_out : bool;
  parks : int;                   (** blocking [select] parks across nodes *)
  dead_letters : int;
      (** packets for a site the receiving node does not host *)
  suspected : (int * string) list;
      (** node by node, the failures each node's daemon suspected (a
          dead letter suspects its site), read after the join, at most
          {!Node.max_suspects} (1,024) per node; the times read 0, as
          there is no virtual clock *)
  metrics : Tyco_support.Metrics.t;
      (** with [run ~metrics:true], the nodes' registries merged after
          the domains join: each node counts ["packets"] and ["bytes"]
          (encoded, without the length prefix) it queued for peers,
          and its daemon ["deliveries"], ["dead_letters"] and
          ["suspects_unlisted"] (the suspicions past the cap that
          [suspected] does not list; {!Node.host}); ["parks"] is added
          at the merge.  Empty
          otherwise. *)
  nodes : int;
  sites : Site.t list;
      (** node by node, each in load order; read after the join, for
          {!Report.of_tcp} *)
}

val default_base_port : pid:int -> nodes:int -> int
(** The listening base port {!run} derives from the process id when
    [base_port] is not given: node ports [base, base + nodes) all lie
    in [20000, 32768), below Linux's ephemeral range.  Raises
    [Invalid_argument] when [nodes] cannot fit. *)

val run :
  ?nodes:int ->
  ?base_port:int ->
  ?inputs:(string -> int list) ->
  ?timeout_ms:int ->
  ?metrics:bool ->
  (string * Tyco_compiler.Block.unit_) list ->
  result
(** Place the compiled sites round-robin on [nodes] (default 4) node
    threads listening on consecutive loopback ports (default base:
    derived from the process id), run until global quiescence or
    [timeout_ms] (default 10_000).  Each node always counts in its
    own {!Tyco_support.Stats} registry; [metrics] (default [false])
    merges them into [result.metrics] after the join. *)

val run_program :
  ?nodes:int -> ?base_port:int -> ?timeout_ms:int -> ?metrics:bool ->
  Tyco_syntax.Ast.program -> result
(** Type-check, compile and {!run}. *)
