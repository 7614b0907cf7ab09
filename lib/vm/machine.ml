module Dq = Tyco_support.Dq
module Stats = Tyco_support.Stats
module Netref = Tyco_support.Netref
module Trace = Tyco_support.Trace
module Block = Tyco_compiler.Block
module Instr = Tyco_compiler.Instr
module Link = Tyco_compiler.Link

type remote_op =
  | Rmsg of Netref.t * string * Value.t array
  | Robj of Netref.t * Value.obj
  | Rfetch of Netref.t * Value.t array
  | Rexport_name of string * Value.chan
  | Rexport_class of string * Value.cls
  | Rimport of {
      site : string;
      name : string;
      is_class : bool;
      cont : int;
      captured : Value.t list;
    }

exception Error = Fuse.Error

let err = Fuse.err

type thread = { t_block : int; t_env : Value.t array; t_span : Trace.span }

(* A block as the machine runs it: its fused ops ({!Fuse}) and its
   frame size. *)
type prog = { ops : Fuse.op array; nslots : int }

type t = {
  name : string;
  area : Link.area;
  runq : thread Dq.t;
  remote : (remote_op * Trace.span) Dq.t;
  mutable chan_uid : int;
  (* Operand stack, shared by all threads of this machine: a thread runs
     to completion and leaves the stack empty, so one growable array
     replaces a freshly-consed list per thread. *)
  mutable ostack : Value.t array;
  mutable osp : int;
  (* Fused programs by block id, [unfused] until the block is first
     spawned; grown as dynamic linking adds blocks. *)
  mutable progs : prog array;
  (* Causal tracing (off by default: [tr] is [Trace.disabled], every
     guard is one load-and-branch, and spans stay [null_span]).
     [tr_on] caches [Trace.enabled tr] — fixed at creation — so each
     dispatch branches on one machine-record load instead of chasing
     the trace-state pointer. *)
  tr : Trace.t;
  tr_on : bool;
  track : int;
  mutable clock : int; (* virtual time, maintained by the embedder *)
  mutable cur_span : Trace.span; (* span causing current spawns *)
  (* Result slots of the last [run_thread] (instructions executed and
     summed virtual-time cost): scratch fields instead of a returned
     tuple, which would be a fresh allocation per thread. *)
  mutable last_executed : int;
  mutable last_cost : int;
  stats : Stats.t;
  c_instr : Stats.Counter.t;
  c_threads : Stats.Counter.t;
  c_comm : Stats.Counter.t;
  c_msgs_parked : Stats.Counter.t;
  c_objs_parked : Stats.Counter.t;
  c_insts : Stats.Counter.t;
  c_defgroups : Stats.Counter.t;
  c_remote : Stats.Counter.t;
  d_thread_len : Stats.Dist.t;
  d_runq_depth : Stats.Dist.t;
}

let unfused = { ops = [||]; nslots = 0 }

let create ?(name = "site") ?(trace = Trace.disabled) ?(track = 0) area =
  let stats = Stats.create () in
  { name;
    area;
    runq = Dq.create ();
    remote = Dq.create ();
    chan_uid = 0;
    ostack = Array.make 64 (Value.Vint 0);
    osp = 0;
    progs = [||];
    tr = trace;
    tr_on = Trace.enabled trace;
    track;
    clock = 0;
    cur_span = Trace.null_span;
    last_executed = 0;
    last_cost = 0;
    stats;
    c_instr = Stats.counter stats "instructions";
    c_threads = Stats.counter stats "threads";
    c_comm = Stats.counter stats "comm_local";
    c_msgs_parked = Stats.counter stats "msgs_parked";
    c_objs_parked = Stats.counter stats "objs_parked";
    c_insts = Stats.counter stats "insts";
    c_defgroups = Stats.counter stats "defgroups";
    c_remote = Stats.counter stats "remote_ops";
    d_thread_len = Stats.dist stats "thread_len";
    d_runq_depth = Stats.dist stats "runq_depth" }

let area t = t.area
let stats t = t.stats
let set_clock t ns = t.clock <- ns
let clock t = t.clock
let set_current_span t sp = t.cur_span <- sp
let trace t = t.tr

let new_chan t name =
  let uid = t.chan_uid in
  t.chan_uid <- uid + 1;
  { Value.ch_uid = uid; ch_name = name; ch_state = Value.Empty }

let builtin_chan t name handler =
  let c = new_chan t name in
  c.Value.ch_state <- Value.Builtin handler;
  c

(* The block's program, fused the first time a thread of it is
   spawned. *)
let program t block =
  let progs = t.progs in
  if block < Array.length progs && progs.(block) != unfused then progs.(block)
  else begin
    if block >= Array.length progs then begin
      let bigger =
        Array.make (max (block + 1) (Link.n_blocks t.area)) unfused
      in
      Array.blit progs 0 bigger 0 (Array.length progs);
      t.progs <- bigger
    end;
    let blk = Link.block t.area block in
    let p = { ops = Fuse.block blk; nslots = blk.Block.blk_nslots } in
    t.progs.(block) <- p;
    p
  end

(* Make a frame for a block: the given initial values fill the first
   slots, the rest are padded (uninitialized locals). *)
let frame_for t ~block ~init =
  let n = (program t block).nslots in
  let frame = Array.make (max n (List.length init)) (Value.Vint 0) in
  List.iteri (fun i v -> frame.(i) <- v) init;
  frame

(* All thread creation funnels through here: the new thread's span is a
   child of [parent] (the spawning thread, or the delivery context the
   site installed with [set_current_span]). *)
let enqueue t ~parent ~block frame =
  let sp =
    if t.tr_on then begin
      let sp = Trace.fresh_span t.tr ~parent in
      Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:sp Trace.Thread_spawn;
      sp
    end
    else Trace.null_span
  in
  Dq.push_back t.runq { t_block = block; t_env = frame; t_span = sp }

let spawn t ~block ~env =
  enqueue t ~parent:t.cur_span ~block (frame_for t ~block ~init:env)

(* A fresh frame of [size] slots.  Up to 8 slots it is an array
   literal, allocated inline on the minor heap, where [Array.make] is a
   C call. *)
let new_frame size =
  let z = Value.Vint 0 in
  match size with
  | 0 -> [||]
  | 1 -> [| z |]
  | 2 -> [| z; z |]
  | 3 -> [| z; z; z |]
  | 4 -> [| z; z; z; z |]
  | 5 -> [| z; z; z; z; z |]
  | 6 -> [| z; z; z; z; z; z |]
  | 7 -> [| z; z; z; z; z; z; z |]
  | 8 -> [| z; z; z; z; z; z; z; z |]
  | _ -> Array.make size z

(* The frame [args..][extra..][padding..] of a method or class body
   whose block has [nslots] slots, for [n] arguments: [extra], the
   closure environment, is copied in, and the caller fills the
   arguments.  One allocation; no argument array is cut out first. *)
let callee_frame nslots n (extra : Value.t array) =
  let ne = Array.length extra in
  let frame = new_frame (if nslots > n + ne then nslots else n + ne) in
  for i = 0 to ne - 1 do
    Array.unsafe_set frame (n + i) (Array.unsafe_get extra i)
  done;
  frame

(* Spawn a method or class body on the [n] arguments read from [src]
   at [off]: the operand stack on the [trmsg]/[instof] paths, a
   message's own array otherwise. *)
let spawn_call t ~parent ~block src off n (extra : Value.t array) =
  let frame = callee_frame (program t block).nslots n extra in
  for i = 0 to n - 1 do
    Array.unsafe_set frame i (Array.unsafe_get src (off + i))
  done;
  enqueue t ~parent ~block frame

let spawn_entry t ~entry ~io = spawn t ~block:entry ~env:[ Value.Vchan io ]

(* Fire a method: the object's method table entry for interned label
   [lid] runs with frame [args..][closure env..], the [n] arguments
   read from [src] at [off].  The entry is found through the area's
   direct-mapped dispatch table — O(1), no string comparison.
   [parent] is the span of the {e message} half of the rendez-vous: the
   message is what causes the method body to run. *)
let fire_method t (obj : Value.obj) ~parent ~lid src off n =
  let idx = Link.method_entry t.area obj.Value.obj_mtable ~lid in
  if idx < 0 then
    err "%s: no method '%s' at object (protocol error)" t.name
      (if lid >= 0 && lid < Link.n_labels t.area then
         Link.label_name t.area lid
       else "<unknown label>");
  let mt = Link.mtable t.area obj.Value.obj_mtable in
  let entry = mt.Block.mt_entries.(idx) in
  if entry.Block.me_nparams <> n then
    err "%s: method '%s': expected %d argument(s), got %d" t.name
      entry.Block.me_label entry.Block.me_nparams n;
  Stats.Counter.incr t.c_comm;
  spawn_call t ~parent ~block:entry.Block.me_block src off n
    obj.Value.obj_env

let fire_args t obj ~parent ~lid (args : Value.t array) =
  fire_method t obj ~parent ~lid args 0 (Array.length args)

(* A message takes the single object parked at [chan]. *)
let unpark_obj1 t (chan : Value.chan) =
  chan.Value.ch_state <- Value.Empty;
  if t.tr_on then
    Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
      Trace.Obj_unpark

(* A message meets the single object parked at [chan]. *)
let fire_obj1 t (chan : Value.chan) obj ~lid src off n =
  unpark_obj1 t chan;
  fire_method t obj ~parent:t.cur_span ~lid src off n

(* Hot path: label already interned (Trmsg operand, parked message).
   [Obj1]/[Msg1] are the steady-state cases — a reply channel or a
   re-parked server object holds exactly one value — and they must not
   touch a deque: a queue only materializes when a second value parks,
   and [Objs]/[Msgs] collapse back to the single-value state as they
   drain, so a channel that briefly queued returns to the no-queue
   regime. *)
let inject_msg_id t (chan : Value.chan) ~lid (args : Value.t array) =
  match chan.Value.ch_state with
  | Value.Obj1 obj -> fire_obj1 t chan obj ~lid args 0 (Array.length args)
  | Value.Empty ->
      Stats.Counter.incr t.c_msgs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Msg_park;
      chan.Value.ch_state <-
        Value.Msg1 { Value.msg_lid = lid; msg_args = args;
                     msg_span = t.cur_span }
  | Value.Objs q ->
      let obj = Dq.pop_front_exn q in
      if Dq.length q = 1 then
        chan.Value.ch_state <- Value.Obj1 (Dq.pop_front_exn q)
      else if Dq.is_empty q then chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_unpark;
      fire_args t obj ~parent:t.cur_span ~lid args
  | Value.Msg1 m1 ->
      Stats.Counter.incr t.c_msgs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Msg_park;
      let q = Dq.create ~capacity:4 () in
      Dq.push_back q m1;
      Dq.push_back q { Value.msg_lid = lid; msg_args = args;
                       msg_span = t.cur_span };
      chan.Value.ch_state <- Value.Msgs q
  | Value.Msgs q ->
      Stats.Counter.incr t.c_msgs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Msg_park;
      Dq.push_back q { Value.msg_lid = lid; msg_args = args;
                       msg_span = t.cur_span }
  | Value.Builtin handler ->
      handler (Link.label_name t.area lid) (Array.to_list args)

(* Cold entry point for the embedding site (packet delivery, builtin
   replies): labels arrive as strings and are interned here. *)
let inject_msg t chan label args =
  inject_msg_id t chan ~lid:(Link.intern t.area label) (Array.of_list args)

let inject_obj t (chan : Value.chan) (obj : Value.obj) =
  match chan.Value.ch_state with
  | Value.Msg1 m ->
      chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:m.Value.msg_span
          Trace.Msg_unpark;
      fire_args t obj ~parent:m.Value.msg_span ~lid:m.Value.msg_lid
        m.Value.msg_args
  | Value.Empty ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      chan.Value.ch_state <- Value.Obj1 obj
  | Value.Msgs q ->
      let m = Dq.pop_front_exn q in
      if Dq.length q = 1 then
        chan.Value.ch_state <- Value.Msg1 (Dq.pop_front_exn q)
      else if Dq.is_empty q then chan.Value.ch_state <- Value.Empty;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:m.Value.msg_span
          Trace.Msg_unpark;
      fire_args t obj ~parent:m.Value.msg_span ~lid:m.Value.msg_lid
        m.Value.msg_args
  | Value.Obj1 o1 ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      let q = Dq.create ~capacity:4 () in
      Dq.push_back q o1;
      Dq.push_back q obj;
      chan.Value.ch_state <- Value.Objs q
  | Value.Objs q ->
      Stats.Counter.incr t.c_objs_parked;
      if t.tr_on then
        Trace.emit t.tr ~ts:t.clock ~track:t.track ~span:t.cur_span
          Trace.Obj_park;
      Dq.push_back q obj
  | Value.Builtin _ -> err "object placed at builtin channel '%s'" chan.Value.ch_name

(* Instantiate a class with the [n] arguments of [src] at [off]. *)
let instantiate_at t (cls : Value.cls) src off n =
  let g = Link.group t.area cls.Value.cls_group in
  let sig_ = g.Block.grp_classes.(cls.Value.cls_index) in
  if sig_.Block.cls_nparams <> n then
    err "%s: class '%s': expected %d argument(s), got %d" t.name
      sig_.Block.cls_name sig_.Block.cls_nparams n;
  Stats.Counter.incr t.c_insts;
  spawn_call t ~parent:t.cur_span ~block:sig_.Block.cls_block src off n
    cls.Value.cls_env

let instantiate_args t cls (args : Value.t array) =
  instantiate_at t cls args 0 (Array.length args)

let instantiate t cls args = instantiate_args t cls (Array.of_list args)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

(* Operand-stack primitives over the machine-owned array. *)

let[@inline] push_op t v =
  (if t.osp = Array.length t.ostack then begin
     let bigger = Array.make (2 * Array.length t.ostack) (Value.Vint 0) in
     Array.blit t.ostack 0 bigger 0 t.osp;
     t.ostack <- bigger
   end);
  Array.unsafe_set t.ostack t.osp v;
  t.osp <- t.osp + 1

let[@inline] pop_op t =
  if t.osp = 0 then err "operand stack underflow";
  t.osp <- t.osp - 1;
  Array.unsafe_get t.ostack t.osp

(* Pop [n] argument values pushed left-to-right and return the stack
   index of the first: they stay in place, in argument order, until the
   caller has copied them — nothing is pushed in between. *)
let pop_base t n =
  if t.osp < n then err "operand stack underflow";
  t.osp <- t.osp - n;
  t.osp

(* The [n] arguments at [base] as an array of their own, for a message
   that parks or leaves the site. *)
let no_args : Value.t array = [||]
let args_at t base n = if n = 0 then no_args else Array.sub t.ostack base n

let push_remote t op =
  Stats.Counter.incr t.c_remote;
  Dq.push_back t.remote (op, t.cur_span)

(* [trmsg] and [instof] of the [argc] arguments at stack index [base]
   to [target]: the byte-code's own paths. *)
let trmsg t target ~lid base argc =
  match target with
  | Value.Vchan ({ Value.ch_state = Value.Obj1 obj; _ } as c) ->
      fire_obj1 t c obj ~lid t.ostack base argc
  | Value.Vchan c -> inject_msg_id t c ~lid (args_at t base argc)
  | Value.Vnetref r ->
      push_remote t (Rmsg (r, Link.label_name t.area lid, args_at t base argc))
  | v -> err "trmsg target is %s, not a channel" (Value.type_name v)

let instof t target base argc =
  match target with
  | Value.Vclass c -> instantiate_at t c t.ostack base argc
  | Value.Vclassref r -> push_remote t (Rfetch (r, args_at t base argc))
  | v -> err "instof target is %s, not a class" (Value.type_name v)

(* Execute one instruction on the operand stack and return the index of
   the next op: [pc] is this op's index, and jump targets are op
   indices. *)
let exec_ins t env pc (ins : Instr.t) =
  match ins with
  | Instr.Push_int n ->
      push_op t (Value.Vint n);
      pc + 1
  | Instr.Push_bool b ->
      push_op t (Fuse.vbool b);
      pc + 1
  | Instr.Push_str s ->
      push_op t (Value.Vstr s);
      pc + 1
  | Instr.Load i ->
      push_op t env.(i);
      pc + 1
  | Instr.Store i ->
      env.(i) <- pop_op t;
      pc + 1
  | Instr.Binop op ->
      let b = pop_op t in
      let a = pop_op t in
      push_op t (Fuse.binop op a b);
      pc + 1
  | Instr.Unop op ->
      push_op t (Fuse.unop op (pop_op t));
      pc + 1
  | Instr.Jump target -> target
  | Instr.Jump_if_false target ->
      if Fuse.as_bool (pop_op t) then pc + 1 else target
  | Instr.New_chan slot ->
      env.(slot) <- Value.Vchan (new_chan t "c");
      pc + 1
  | Instr.Trmsg { lid; argc; _ } ->
      let target = pop_op t in
      trmsg t target ~lid (pop_base t argc) argc;
      pc + 1
  | Instr.Trobj mt_id -> (
      let mt = Link.mtable t.area mt_id in
      let captured = Array.map (fun slot -> env.(slot)) mt.Block.mt_captures in
      let obj = { Value.obj_mtable = mt_id; obj_env = captured } in
      match pop_op t with
      | Value.Vchan c ->
          inject_obj t c obj;
          pc + 1
      | Value.Vnetref r ->
          push_remote t (Robj (r, obj));
          pc + 1
      | v -> err "trobj target is %s, not a channel" (Value.type_name v))
  | Instr.Defgroup gid ->
      Stats.Counter.incr t.c_defgroups;
      let g = Link.group t.area gid in
      let ncap = Array.length g.Block.grp_captures in
      let nclasses = Array.length g.Block.grp_classes in
      let shared = Array.make (ncap + nclasses) (Value.Vint 0) in
      Array.iteri (fun i slot -> shared.(i) <- env.(slot)) g.Block.grp_captures;
      Array.iteri
        (fun i _ ->
          let v =
            Value.Vclass { Value.cls_group = gid; cls_index = i; cls_env = shared }
          in
          shared.(ncap + i) <- v;
          env.(g.Block.grp_slots.(i)) <- v)
        g.Block.grp_classes;
      pc + 1
  | Instr.Instof argc ->
      let target = pop_op t in
      instof t target (pop_base t argc) argc;
      pc + 1
  | Instr.Export_name x -> (
      match pop_op t with
      | Value.Vchan c ->
          push_remote t (Rexport_name (x, c));
          pc + 1
      | v -> err "export of %s, not a local channel" (Value.type_name v))
  | Instr.Export_class (x, slot) -> (
      match env.(slot) with
      | Value.Vclass c ->
          push_remote t (Rexport_class (x, c));
          pc + 1
      | v -> err "export of %s, not a local class" (Value.type_name v))
  | Instr.Import_name { site; name; cont; captures } ->
      push_remote t
        (Rimport
           { site; name; is_class = false; cont;
             captured = Array.to_list (Array.map (fun s -> env.(s)) captures) });
      pc + 1
  | Instr.Import_class { site; name; cont; captures } ->
      push_remote t
        (Rimport
           { site; name; is_class = true; cont;
             captured = Array.to_list (Array.map (fun s -> env.(s)) captures) });
      pc + 1

(* The value of an [Exprs] operand.  Fuse has the same function for its
   own closures; libraries are built without cross-module inlining, and
   an out-of-module call per pushed value would cost a generic
   application. *)
let[@inline] operand env = function
  | Fuse.Slot i -> env.(i)
  | Fuse.Const v -> v
  | Fuse.Fn f -> f env

(* The byte-code's path for a fused call: its run pushes the arguments
   and the call pops them, leaving them at the returned stack index. *)
let push_args t env (args : Fuse.operand array) =
  let base = t.osp in
  for i = 0 to Array.length args - 1 do
    push_op t (operand env (Array.unsafe_get args i))
  done;
  t.osp <- base;
  base

(* The frame size of [block] once it is fused, else [-1]: a fused call
   to a block not yet fused takes the byte-code's path, so the block is
   fused, and can raise, exactly where the byte-code fuses it. *)
let fused_nslots t block =
  let progs = t.progs in
  if block < Array.length progs then
    let p = Array.unsafe_get progs block in
    if p != unfused then p.nslots else -1
  else -1

(* The frame of a callee whose block has [nslots] slots, the arguments
   evaluated in order straight into it: nothing goes through the
   operand stack, and a raising argument leaves nothing changed. *)
let call_frame env (args : Fuse.operand array) nslots extra =
  let frame = callee_frame nslots (Array.length args) extra in
  for i = 0 to Array.length args - 1 do
    Array.unsafe_set frame i (operand env (Array.unsafe_get args i))
  done;
  frame

(* A fused [instof].  A local class of the call's arity whose block is
   fused runs with the arguments evaluated into its frame, counted and
   queued as [instantiate_at] does; any other target takes the
   byte-code's path. *)
let call t env args target =
  let n = Array.length args in
  match target with
  | Value.Vclass c ->
      let g = Link.group t.area c.Value.cls_group in
      let sig_ = g.Block.grp_classes.(c.Value.cls_index) in
      let block = sig_.Block.cls_block in
      let nslots =
        if sig_.Block.cls_nparams = n then fused_nslots t block else -1
      in
      if nslots >= 0 then begin
        let frame = call_frame env args nslots c.Value.cls_env in
        Stats.Counter.incr t.c_insts;
        enqueue t ~parent:t.cur_span ~block frame
      end
      else instof t target (push_args t env args) n
  | _ -> instof t target (push_args t env args) n

(* The block of [obj]'s method [lid] if it takes [n] arguments, else
   [-1]. *)
let method_block t (obj : Value.obj) ~lid n =
  let mt = obj.Value.obj_mtable in
  let idx = Link.method_entry t.area mt ~lid in
  if idx < 0 then -1
  else
    let entry = (Link.mtable t.area mt).Block.mt_entries.(idx) in
    if entry.Block.me_nparams = n then entry.Block.me_block else -1

(* A fused [trmsg].  A local channel holding one object whose method
   takes the call's arity and is fused fires that method with the
   arguments evaluated into its frame, and only then empties the
   channel, counted and queued as [fire_obj1] does; any other target
   takes the byte-code's path. *)
let send t env ~lid args target =
  let n = Array.length args in
  match target with
  | Value.Vchan ({ Value.ch_state = Value.Obj1 obj; _ } as c) ->
      let block = method_block t obj ~lid n in
      let nslots = if block >= 0 then fused_nslots t block else -1 in
      if nslots >= 0 then begin
        let frame = call_frame env args nslots obj.Value.obj_env in
        unpark_obj1 t c;
        Stats.Counter.incr t.c_comm;
        enqueue t ~parent:t.cur_span ~block frame
      end
      else trmsg t target ~lid (push_args t env args) n
  | _ -> trmsg t target ~lid (push_args t env args) n

(* Execute one thread to completion: the one step loop, over the
   block's fused ops.  A top-level tail-recursive function threading
   [executed]/[cost] as parameters: an inner [let rec] would allocate
   its closure plus two [ref] accumulators per thread — at a few tens
   of instructions per thread (paper §1) that fixed setup cost is
   comparable to the work itself.  Results land in the
   [last_executed]/[last_cost] scratch fields (no per-thread tuple). *)
let rec exec t (ops : Fuse.op array) env pc executed cost =
  if pc >= Array.length ops then begin
    t.last_executed <- executed;
    t.last_cost <- cost
  end
  else
    match Array.unsafe_get ops pc with
    | Fuse.Exprs { n; cost = c; vals } ->
        for i = 0 to Array.length vals - 1 do
          push_op t (operand env (Array.unsafe_get vals i))
        done;
        exec t ops env (pc + 1) (executed + n) (cost + c)
    | Fuse.Branch { n; cost = c; cond; target } ->
        exec t ops env
          (if cond env then pc + 1 else target)
          (executed + n) (cost + c)
    | Fuse.Call { n; cost = c; args; target } ->
        call t env args (operand env target);
        exec t ops env (pc + 1) (executed + n) (cost + c)
    | Fuse.Send { n; cost = c; lid; args; target } ->
        send t env ~lid args (operand env target);
        exec t ops env (pc + 1) (executed + n) (cost + c)
    | Fuse.Ins { cost = c; ins } ->
        exec t ops env (exec_ins t env pc ins) (executed + 1) (cost + c)

let run_thread t (th : thread) =
  t.osp <- 0;
  exec t (program t th.t_block).ops th.t_env 0 0 0

let runnable t = not (Dq.is_empty t.runq)

let run t ~budget =
  let executed = ref 0 in
  let cost = ref 0 in
  let continue_ = ref true in
  (* run-queue depth at quantum start: the latency-hiding evidence —
     deep queues mean remote waits are being overlapped (paper §5) *)
  Stats.Dist.add_int t.d_runq_depth (Dq.length t.runq);
  while !continue_ && !executed < budget do
    if Dq.is_empty t.runq then continue_ := false
    else begin
      let th = Dq.pop_front_exn t.runq in
      Stats.Counter.incr t.c_threads;
      t.cur_span <- th.t_span;
      let start = t.clock in
      run_thread t th;
      let n = t.last_executed and c = t.last_cost in
      t.clock <- start + c;
      if t.tr_on then
        Trace.emit t.tr ~ts:start ~dur:c ~track:t.track ~span:th.t_span
          (Trace.Run_slice { instrs = n; cost = c });
      Stats.Counter.add t.c_instr n;
      Stats.Dist.add_int t.d_thread_len n;
      executed := !executed + n;
      cost := !cost + c
    end
  done;
  t.cur_span <- Trace.null_span;
  (!executed, !cost)

let pop_remote_op t = Option.map fst (Dq.pop_front t.remote)
let pop_remote_traced t = Dq.pop_front t.remote
