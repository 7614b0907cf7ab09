(* Virtual machine tests: channel rendez-vous semantics, builtins,
   dynamic errors, closures and mutual recursion, remote-operation
   surfacing, and metrics. *)

open Tyco_vm
module Parser = Tyco_syntax.Parser
module Compile = Tyco_compiler.Compile
module Link = Tyco_compiler.Link
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats

let check = Alcotest.check

(* Run a single-site program and collect io events. *)
let run_vm ?(budget = 1_000_000) src =
  let unit_ = Compile.compile_proc (Parser.parse_proc src) in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun label args ->
        outs := (label, args) :: !outs)
  in
  Machine.spawn_entry vm ~entry ~io;
  let _instrs, _cost = Machine.run vm ~budget in
  (vm, List.rev !outs)

let out_testable =
  let pp ppf (l, args) =
    Fmt.pf ppf "%s[%a]" l (Fmt.list ~sep:Fmt.comma Value.pp) args
  in
  Alcotest.testable pp (fun (l1, a1) (l2, a2) ->
      l1 = l2
      && List.length a1 = List.length a2
      && List.for_all2
           (fun x y ->
             match (x, y) with
             | Value.Vint a, Value.Vint b -> a = b
             | Value.Vbool a, Value.Vbool b -> a = b
             | Value.Vstr a, Value.Vstr b -> a = b
             | _ -> false)
           a1 a2)

let ints label xs = List.map (fun n -> (label, [ Value.Vint n ])) xs

(* ------------------------------------------------------------------ *)
(* Rendez-vous semantics                                                *)

let msg_then_obj () =
  let _, outs = run_vm "new x (x![5] | x?(v) = io!printi[v])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 5 ]) outs

let obj_then_msg () =
  let _, outs = run_vm "new x ((x?(v) = io!printi[v]) | x![6])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 6 ]) outs

let fifo_messages () =
  let _, outs =
    run_vm
      "new x (x![1] | x![2] | x![3] | x?(v) = io!printi[v] | x?(v) = io!printi[v] | x?(v) = io!printi[v])"
  in
  check (Alcotest.list out_testable) "fifo" (ints "printi" [ 1; 2; 3 ]) outs

let fifo_objects () =
  let _, outs =
    run_vm
      {| new x ((x?(v) = io!printi[v * 10]) | (x?(v) = io!printi[v * 100])
         | x![1] | x![1]) |}
  in
  check (Alcotest.list out_testable) "object order" (ints "printi" [ 10; 100 ]) outs

let label_dispatch () =
  let _, outs =
    run_vm
      {| new x (x?{ inc(v, k) = k![v + 1], dec(v, k) = k![v - 1] }
         | new k (x!dec[10, k] | k?(r) = io!printi[r])) |}
  in
  check (Alcotest.list out_testable) "dec selected" (ints "printi" [ 9 ]) outs

let unmatched_message_parks () =
  let vm, outs = run_vm "new x x![1]" in
  check (Alcotest.list out_testable) "no output" [] outs;
  check Alcotest.bool "not runnable" false (Machine.runnable vm);
  let parked =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "msgs_parked")
  in
  check Alcotest.int "parked" 1 parked

(* ------------------------------------------------------------------ *)
(* Closures                                                            *)

let closure_captures_environment () =
  let _, outs =
    run_vm
      {| new x, y (y![7] | (x?(v) = y?(w) = io!printi[v + w]) | x![35]) |}
  in
  check (Alcotest.list out_testable) "captured v" (ints "printi" [ 42 ]) outs

let class_env_mutual_recursion () =
  let _, outs =
    run_vm
      {| new base (base![3] |
         def Even(n) = if n == 0 then (base?(b) = io!printi[b]) else Odd[n - 1]
         and Odd(n) = Even[n - 1]
         in Even[8]) |}
  in
  check (Alcotest.list out_testable) "group shares env" (ints "printi" [ 3 ]) outs

let nested_defs () =
  let _, outs =
    run_vm
      {| def Outer(k) = (def Inner(v) = k![v * 2] in Inner[21])
         in new k (Outer[k] | k?(v) = io!printi[v]) |}
  in
  check (Alcotest.list out_testable) "nested groups" (ints "printi" [ 42 ]) outs

(* ------------------------------------------------------------------ *)
(* Expressions and control                                             *)

let expression_ops () =
  let _, outs =
    run_vm
      {| io!printi[2 * 3 + 10 / 2 - 7 % 4]
       | io!printb[1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3]
       | io!printb[not (1 == 2) && (1 != 2 || false)]
       | io!printi[-5] |}
  in
  check Alcotest.int "four outputs" 4 (List.length outs);
  check (Alcotest.list out_testable) "values"
    [ ("printi", [ Value.Vint 8 ]);
      ("printb", [ Value.Vbool true ]);
      ("printb", [ Value.Vbool true ]);
      ("printi", [ Value.Vint (-5) ]) ]
    outs

let if_branches () =
  let _, outs =
    run_vm
      {| if 1 < 2 then io!printi[1] else io!printi[2]
       | if false then io!printi[3] else io!printi[4] |}
  in
  check (Alcotest.list out_testable) "branches" (ints "printi" [ 1; 4 ]) outs

let string_values () =
  let _, outs = run_vm {| io!print["hello"] |} in
  check (Alcotest.list out_testable) "string"
    [ ("print", [ Value.Vstr "hello" ]) ]
    outs

(* ------------------------------------------------------------------ *)
(* Dynamic errors                                                      *)

let vm_errors () =
  let fails src =
    match run_vm src with exception Machine.Error _ -> true | _ -> false
  in
  check Alcotest.bool "div zero" true (fails "io!printi[1 / 0]");
  check Alcotest.bool "mod zero" true (fails "io!printi[1 % 0]");
  check Alcotest.bool "no such method" true
    (fails "new x (x?{ a() = nil } | x!b[])");
  check Alcotest.bool "arity" true (fails "new x (x?{ a(u) = nil } | x!a[])");
  check Alcotest.bool "object at builtin" true (fails "io?(v) = nil");
  (* type errors inside the expressions of untyped programs, message
     and all *)
  let error src =
    match run_vm src with
    | exception Machine.Error m -> m
    | _ -> "no error"
  in
  check Alcotest.string "int op on a bool" "expected int, got bool"
    (error "io!printi[1 + true]");
  check Alcotest.string "not of an int" "expected bool, got int"
    (error "io!printb[not 3]");
  check Alcotest.string "negated bool" "expected int, got bool"
    (error "io!printi[-true]");
  check Alcotest.string "int condition" "expected bool, got int"
    (error "if 2 then nil else nil");
  check Alcotest.string "bool compared to int" "expected int, got bool"
    (error "if 1 < false then nil else nil");
  let _, outs = run_vm "io!printb[1 == true]" in
  check (Alcotest.list out_testable) "mixed equality is false"
    [ ("printb", [ Value.Vbool false ]) ]
    outs

(* The entry thread's frame is [io; env vm..]: [env] gets the machine
   before the thread is spawned, so a test can make channels on it or
   keep it.  Returns the (instructions, cost) of the run, the io events
   and the counters [threads], [insts], [comm_local] and [msgs_parked]. *)
let run_asm ?(env = fun _ -> []) text =
  let area, entry = Link.of_unit (Tyco_compiler.Asm.parse text) in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun label args ->
        outs := (label, args) :: !outs)
  in
  Machine.spawn vm ~block:entry ~env:(Value.Vchan io :: env vm);
  let counts = Machine.run vm ~budget:1000 in
  let count name = Stats.Counter.value (Stats.counter (Machine.stats vm) name) in
  ( counts,
    List.rev !outs,
    List.map count [ "threads"; "insts"; "comm_local"; "msgs_parked" ] )

(* Hand-written blocks the fuser cannot follow (an expression popping a
   value pushed before a [newc], a [binop] on an empty stack) or can
   only follow by splitting at a jump target run as the byte-code
   would: same output, same instruction count and cost, same error. *)
let fuser_fallback () =
  let unit_of body =
    Printf.sprintf "unit entry=b0\nblock b0 \"entry\" params=1 slots=2 {\n%s\n}\n"
      body
  in
  (* pushi 1 is flushed at newc; add then needs it back *)
  let counts, outs, _ =
    run_asm
      (unit_of "pushi 1\nnewc 1\npushi 2\nadd\nload 0\ntrmsg printi/1")
  in
  check (Alcotest.list out_testable) "across newc" (ints "printi" [ 3 ]) outs;
  check Alcotest.(pair int int) "counts and cost" (6, 1 + 6 + 1 + 2 + 1 + 12)
    counts;
  (* a jump into the middle of a run: 5 stays on the stack *)
  let counts, outs, _ =
    run_asm
      (unit_of
         "pushb true\njmpf 3\npushi 5\npushi 7\nload 0\ntrmsg printi/1")
  in
  check (Alcotest.list out_testable) "jump into a run" (ints "printi" [ 7 ])
    outs;
  check Alcotest.(pair int int) "counts and cost through the jump"
    (6, 1 + 1 + 1 + 1 + 1 + 12) counts;
  check Alcotest.string "underflow" "operand stack underflow"
    (match run_asm (unit_of "add") with
    | exception Machine.Error m -> m
    | _ -> "no error")

(* ------------------------------------------------------------------ *)
(* Fused expressions against OCaml                                     *)

(* Well-typed int and bool expression trees over the parameters of
   [def F(a, b, p)]: [a] and [b] ints in slots 0 and 1, [p] a bool in
   slot 2. *)
type ex =
  | Int of int
  | Bool of bool
  | Param of string
  | Bin of Tyco_syntax.Ast.binop * ex * ex
  | Neg of ex
  | Not of ex

module Ast = Tyco_syntax.Ast

let rec source = function
  | Int n when n < 0 -> Printf.sprintf "(-%d)" (-n)
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Param x -> x
  | Bin (op, x, y) ->
      let sym =
        match op with
        | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
        | Ast.Mod -> "%" | Ast.Eq -> "==" | Ast.Neq -> "!=" | Ast.Lt -> "<"
        | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">=" | Ast.And -> "&&"
        | Ast.Or -> "||"
      in
      Printf.sprintf "(%s %s %s)" (source x) sym (source y)
  | Neg x -> Printf.sprintf "(-%s)" (source x)
  | Not x -> Printf.sprintf "(not %s)" (source x)

exception Div_by_zero

(* Strict, like the byte-code: both operands of [&&]/[||] are computed. *)
let rec eval env = function
  | Int n -> `I n
  | Bool b -> `B b
  | Param x -> List.assoc x env
  | Neg x -> `I (-int env x)
  | Not x -> `B (not (bool env x))
  | Bin (op, x, y) -> (
      let vx = eval env x in
      let vy = eval env y in
      let i = function `I n -> n | `B _ -> assert false in
      let b = function `B v -> v | `I _ -> assert false in
      match op with
      | Ast.Add -> `I (i vx + i vy)
      | Ast.Sub -> `I (i vx - i vy)
      | Ast.Mul -> `I (i vx * i vy)
      | Ast.Div -> if i vy = 0 then raise Div_by_zero else `I (i vx / i vy)
      | Ast.Mod -> if i vy = 0 then raise Div_by_zero else `I (i vx mod i vy)
      | Ast.Lt -> `B (i vx < i vy)
      | Ast.Le -> `B (i vx <= i vy)
      | Ast.Gt -> `B (i vx > i vy)
      | Ast.Ge -> `B (i vx >= i vy)
      | Ast.Eq -> `B (vx = vy)
      | Ast.Neq -> `B (vx <> vy)
      | Ast.And -> `B (b vx && b vy)
      | Ast.Or -> `B (b vx || b vy))

and int env x = match eval env x with `I n -> n | `B _ -> assert false
and bool env x = match eval env x with `B v -> v | `I _ -> assert false

let gen_int_literal =
  QCheck2.Gen.(
    oneof
      [ int_range (-20) 20; map (fun n -> max n (-max_int)) int;
        pure max_int; pure (-max_int);
        pure 0; pure 1; pure (-1) ])

let gen_tree =
  let open QCheck2.Gen in
  let rec int_ex n =
    if n = 0 then
      oneof [ map (fun k -> Int k) gen_int_literal; oneofl [ Param "a"; Param "b" ] ]
    else
      frequency
        [ (2, int_ex 0);
          ( 4,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ])
              (int_ex (n / 2)) (int_ex (n / 2)) );
          (1, map (fun x -> Neg x) (int_ex (n - 1))) ]
  and bool_ex n =
    if n = 0 then oneof [ map (fun b -> Bool b) bool; pure (Param "p") ]
    else
      frequency
        [ (1, bool_ex 0);
          ( 3,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Neq ])
              (int_ex (n / 2)) (int_ex (n / 2)) );
          ( 2,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.And; Ast.Or; Ast.Eq; Ast.Neq ])
              (bool_ex (n / 2)) (bool_ex (n / 2)) );
          (1, map (fun x -> Not x) (bool_ex (n - 1))) ]
  in
  sized_size (int_range 0 8) (fun n ->
      oneof
        [ map (fun e -> (`Int, e)) (int_ex n);
          map (fun e -> (`Bool, e)) (bool_ex n) ])

let fused_expressions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fused expressions compute what OCaml does"
       ~count:500
       ~print:(fun ((_, e), a, b, p) ->
         Printf.sprintf "%s with a=%d b=%d p=%b" (source e) a b p)
       QCheck2.Gen.(quad gen_tree gen_int_literal gen_int_literal bool)
       (fun ((ty, e), a, b, p) ->
         let label = match ty with `Int -> "printi" | `Bool -> "printb" in
         let src =
           Printf.sprintf "def F(a, b, p) = io!%s[%s] in F[%s, %s, %b]" label
             (source e) (source (Int a)) (source (Int b)) p
         in
         let unit_ = Compile.compile_proc (Parser.parse_proc src) in
         let area, entry = Link.of_unit unit_ in
         let vm = Machine.create area in
         let outs = ref [] in
         let io =
           Machine.builtin_chan vm "io" (fun l args -> outs := (l, args) :: !outs)
         in
         Machine.spawn_entry vm ~entry ~io;
         let expected =
           try Some (eval [ ("a", `I a); ("b", `I b); ("p", `B p) ] e)
           with Div_by_zero -> None
         in
         match (Machine.run vm ~budget:1_000_000, expected) with
         | exception Machine.Error _ -> expected = None
         | _, None -> false
         | (instrs, cost), Some v ->
             (* both blocks are straight-line code and both ran whole *)
             let code =
               Array.concat
                 (List.map
                    (fun (b : Tyco_compiler.Block.block) -> b.blk_code)
                    (Array.to_list unit_.Tyco_compiler.Block.blocks))
             in
             let value =
               match v with `I n -> Value.Vint n | `B b -> Value.Vbool b
             in
             instrs = Array.length code
             && cost
                = Array.fold_left
                    (fun acc ins -> acc + Tyco_compiler.Instr.cost ins)
                    0 code
             && (match !outs with
                | [ (l, [ got ]) ] -> l = label && got = value
                | _ -> false)))

(* ------------------------------------------------------------------ *)
(* Remote operation surfacing                                          *)

let run_site_program site_name src =
  let units = Compile.compile_program (Parser.parse_program src) in
  let unit_ = List.assoc site_name units in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  ignore (Machine.run vm ~budget:100_000);
  vm

let export_surfaces () =
  let vm =
    run_site_program "a" {| site a { export new p p?(x) = nil } |}
  in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rexport_name ("p", _)) -> ()
  | _ -> Alcotest.fail "expected Rexport_name"

let import_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { site = "a"; name = "p"; is_class = false; _ }) -> ()
  | _ -> Alcotest.fail "expected Rimport"

let remote_msg_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  ignore (Machine.pop_remote_op vm);
  (* feed the name-service reply by spawning the continuation with a
     remote reference, as the site would *)
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:9 ~ip:9 in
  (match Machine.pop_remote_op vm with
  | None -> ()
  | Some _ -> Alcotest.fail "only one op expected");
  Machine.spawn vm ~block:1 ~env:[ Value.Vnetref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rmsg (r', "val", [| Value.Vint 1 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rmsg"

let fetch_surfaces () =
  let vm = run_site_program "b" {| site b { import K from a in K[5] } |} in
  (match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { is_class = true; _ }) -> ()
  | _ -> Alcotest.fail "expected class import");
  let r = Netref.make ~kind:Netref.Class ~heap_id:0 ~site_id:9 ~ip:9 in
  Machine.spawn vm ~block:1 ~env:[ Value.Vclassref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rfetch (r', [| Value.Vint 5 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rfetch"

(* ------------------------------------------------------------------ *)
(* Metrics and scheduling                                              *)

let budget_respected () =
  let unit_ =
    Compile.compile_proc
      (Parser.parse_proc "def Loop() = Loop[] in Loop[]")
  in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  let executed, cost = Machine.run vm ~budget:500 in
  check Alcotest.bool "stopped near budget" true
    (executed >= 500 && executed < 600);
  check Alcotest.bool "cost positive" true (cost > 0);
  check Alcotest.bool "still runnable" true (Machine.runnable vm)

let thread_granularity () =
  let vm, _ =
    run_vm
      {| def Cell(self, v) =
           self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
         in new c (Cell[c, 0] | new r (c!read[r] | r?(v) = io!printi[v])) |}
  in
  let d = Stats.dist (Machine.stats vm) "thread_len" in
  check Alcotest.bool "threads are tens of instructions" true
    (Stats.Dist.count d > 0 && Stats.Dist.mean d < 100.0);
  let threads =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "threads")
  in
  check Alcotest.bool "several threads ran" true (threads >= 4)

(* ------------------------------------------------------------------ *)
(* Calls and sends, pinned                                             *)

(* [instof] and [trmsg] on every kind of target, as hand-written
   assembly: each case is pinned to one line recording its io events,
   (instructions, cost) and counters — or its error — plus the remote
   ops it queued, the state it left the channel [ch] in and whether a
   thread is still queued.  The figures were read off the byte-code
   stepped one instruction at a time. *)

let group_asm ?(caps = "[0]") ~slots classes =
  Printf.sprintf "group g0 caps=%s slots=%s {\n%s\n}\n" caps slots
    (String.concat "\n" classes)

(* A unit whose entry block b0, with a frame of [slots] slots, runs
   [code]; then blocks b1.. given as (params, slots, code), and the
   method tables and groups. *)
let unit_asm ?(tables = "") (slots, code) blocks =
  String.concat "\n"
    (Printf.sprintf "unit entry=b0\nblock b0 \"entry\" params=1 slots=%d {\n%s\n}"
       slots code
    :: List.mapi
         (fun i (params, slots, code) ->
           Printf.sprintf "block b%d \"b%d\" params=%d slots=%d {\n%s\n}"
             (i + 1) (i + 1) params slots code)
         blocks
    @ [ tables ])

let call_case ?(chan = false) ?(refs = []) text =
  let vm = ref None and ch = ref None in
  let env m =
    vm := Some m;
    (if chan then begin
       let c = Machine.new_chan m "ch" in
       ch := Some c;
       [ Value.Vchan c ]
     end
     else [])
    @ refs
  in
  let counters m =
    List.map
      (fun name -> Stats.Counter.value (Stats.counter (Machine.stats m) name))
      [ "threads"; "insts"; "comm_local"; "msgs_parked" ]
  in
  let show args = String.concat ", " (List.map (Fmt.str "%a" Value.pp) args) in
  let ints counts = String.concat ", " (List.map string_of_int counts) in
  let ran =
    match run_asm ~env text with
    | (instrs, cost), outs, counts ->
        Printf.sprintf "%s | %d instrs, cost %d | %s"
          (if outs = [] then "-"
           else
             String.concat " "
               (List.map (fun (l, args) -> Printf.sprintf "%s[%s]" l (show args)) outs))
          instrs cost (ints counts)
    | exception Machine.Error m ->
        Printf.sprintf "error: %s | %s" m (ints (counters (Option.get !vm)))
  in
  let m = Option.get !vm in
  let rec remote acc =
    match Machine.pop_remote_op m with
    | Some (Machine.Rmsg (_, l, args)) ->
        remote (Printf.sprintf "rmsg %s[%s]" l (show (Array.to_list args)) :: acc)
    | Some (Machine.Rfetch (_, args)) ->
        remote (Printf.sprintf "rfetch[%s]" (show (Array.to_list args)) :: acc)
    | Some _ -> remote ("other" :: acc)
    | None -> List.rev acc
  in
  let state =
    match !ch with
    | None -> []
    | Some c -> (
        match c.Value.ch_state with
        | Value.Empty -> [ "ch empty" ]
        | Value.Msg1 _ -> [ "ch msg1" ]
        | Value.Msgs q -> [ Printf.sprintf "ch msgs %d" (Tyco_support.Dq.length q) ]
        | Value.Obj1 _ -> [ "ch obj1" ]
        | Value.Objs q -> [ Printf.sprintf "ch objs %d" (Tyco_support.Dq.length q) ]
        | Value.Builtin _ -> [ "ch builtin" ])
  in
  String.concat " | "
    ((ran :: remote []) @ state
    @ if Machine.runnable m then [ "runnable" ] else [])

(* A class printing its [k] arguments, called with [k] of them: 1, 9,
   3, 27, ... *)
let instof_k k =
  let args =
    List.init k (fun i ->
        if i mod 2 = 0 then Printf.sprintf "pushi %d" (i + 1)
        else Printf.sprintf "pushi %d\npushi %d\nsub" (10 * i) i)
  in
  let body =
    if k = 0 then "pushi 7\nload 0\ntrmsg printi/1"
    else
      String.concat "\n"
        (List.init k (fun i -> Printf.sprintf "load %d\nload %d\ntrmsg printi/1" i k))
  in
  unit_asm
    (2, String.concat "\n" (("defgroup g0" :: args) @ [ "load 1"; Printf.sprintf "instof %d" k ]))
    ~tables:(group_asm ~slots:"[1]" [ Printf.sprintf "K -> b1/%d" k ])
    [ (k, k + 2, body) ]

let pinned_calls () =
  let pin name expected text = check Alcotest.string name expected text in
  List.iter
    (fun (k, expected) ->
      pin (Printf.sprintf "instof %d" k) expected (call_case (instof_k k)))
    [ ( 0, "printi[7] | 6 instrs, cost 33 | 2, 1, 0, 0" );
      ( 1, "printi[1] | 7 instrs, cost 34 | 2, 1, 0, 0" );
      ( 3, "printi[1] printi[9] printi[3] | 17 instrs, cost 67 | 2, 1, 0, 0" );
      ( 9,
        "printi[1] printi[9] printi[3] printi[27] printi[5] printi[45] printi[7] printi[63] printi[9] | 47 instrs, cost 166 | 2, 1, 0, 0" ) ];
  (* one op, the recursive call, calls the same class three times *)
  pin "same class twice"
    "printi[3] printi[2] printi[1] | 45 instrs, cost 128 | 5, 4, 0, 0"
    (call_case
       (unit_asm (2, "defgroup g0\npushi 3\nload 1\ninstof 1")
          ~tables:(group_asm ~slots:"[1]" [ "Loop -> b1/1" ])
          [ ( 1, 3,
              "load 0\npushi 0\neq\njmpf 5\njmp 13\nload 0\nload 1\n\
               trmsg printi/1\nload 0\npushi 1\nsub\nload 2\ninstof 1" ) ]));
  (* Apply's one op calls A, C, B, A, A: C has A's index in another
     group *)
  let apply_calls =
    String.concat "\n"
      (List.mapi
         (fun i slot -> Printf.sprintf "load %d\npushi %d\nload 1\ninstof 2" slot (i + 1))
         [ 2; 4; 3; 2; 2 ])
  in
  pin "two classes in turn"
    "printi[1] printi[1002] printi[103] printi[4] printi[5] | 56 instrs, cost 217 | 11, 10, 0, 0"
    (call_case
       (unit_asm
          (6, "defgroup g0\ndefgroup g1\n" ^ apply_calls)
          ~tables:
            (group_asm ~slots:"[1,2,3]"
               [ "Apply -> b1/2"; "A -> b2/1"; "B -> b3/1" ]
            ^ "group g1 caps=[0] slots=[5,4] {\nZ -> b4/1\nC -> b5/1\n}\n")
          [ (2, 6, "load 1\nload 0\ninstof 1");
            (1, 5, "load 0\nload 1\ntrmsg printi/1");
            (1, 5, "load 0\npushi 100\nadd\nload 1\ntrmsg printi/1");
            (1, 4, "load 0\nload 1\ntrmsg printi/1");
            (1, 4, "load 0\npushi 1000\nadd\nload 1\ntrmsg printi/1") ]));
  pin "wrong arity"
    "error: site: class 'K2': expected 2 argument(s), got 1 | 1, 0, 0, 0"
    (call_case
       (unit_asm (2, "defgroup g0\npushi 1\nload 1\ninstof 1")
          ~tables:(group_asm ~slots:"[1]" [ "K2 -> b1/2" ])
          [ (2, 4, "load 0\nload 2\ntrmsg printi/1") ]));
  (* K's block is fused by its first call, so the second call's op
     checks the arity itself *)
  pin "wrong arity to a fused class"
    "error: site: class 'K': expected 1 argument(s), got 2 | 1, 1, 0, 0 | runnable"
    (call_case
       (unit_asm
          (2, "defgroup g0\npushi 1\nload 1\ninstof 1\npushi 1\npushi 2\nload 1\ninstof 2")
          ~tables:(group_asm ~slots:"[1]" [ "K -> b1/1" ])
          [ (1, 3, "load 0\nload 1\ntrmsg printi/1") ]));
  pin "int target, argument divides by zero"
    "error: division by zero | 1, 0, 0, 0"
    (call_case
       (unit_asm (1, "pushi 1\npushi 0\ndiv\npushi 5\ninstof 1") []));
  pin "int target"
    "error: instof target is int, not a class | 1, 0, 0, 0"
    (call_case (unit_asm (1, "pushi 1\npushi 5\ninstof 1") []));
  pin "class reference"
    "- | 5 instrs, cost 15 | 1, 0, 0, 0 | rfetch[3]"
    (call_case
       ~refs:
         [ Value.Vclassref
             (Netref.make ~kind:Netref.Class ~heap_id:0 ~site_id:9 ~ip:9) ]
       (unit_asm (2, "pushi 1\npushi 2\nadd\nload 1\ninstof 1") []));
  (* method tables over an entry frame [io; ch]: mt0 prints v, mt1
     prints v + 100 *)
  let objects =
    "mtable mt0 caps=[0] {\nval -> b1/1\n}\nmtable mt1 caps=[0] {\nval -> b2/1\n}\n"
  in
  let printers =
    [ (1, 2, "load 0\nload 1\ntrmsg printi/1");
      (1, 2, "load 0\npushi 100\nadd\nload 1\ntrmsg printi/1") ]
  in
  let send code = call_case ~chan:true (unit_asm (2, code) ~tables:objects printers) in
  pin "trmsg to one object"
    "printi[5] | 8 instrs, cost 41 | 2, 0, 1, 0 | ch empty"
    (send "load 1\ntrobj mt0\npushi 5\nload 1\ntrmsg val/1");
  pin "trmsg to an object without the method"
    "error: site: no method 'nope' at object (protocol error) | 1, 0, 0, 0 | ch empty"
    (send "load 1\ntrobj mt0\npushi 5\nload 1\ntrmsg nope/1");
  pin "trmsg with the wrong arity"
    "error: site: method 'val': expected 1 argument(s), got 2 | 1, 0, 0, 0 | ch empty"
    (send "load 1\ntrobj mt0\npushi 5\npushi 6\nload 1\ntrmsg val/2");
  pin "trmsg with the wrong arity to a fused method"
    "error: site: method 'val': expected 1 argument(s), got 2 | 1, 0, 1, 0 | ch empty | runnable"
    (send
       "load 1\ntrobj mt0\npushi 5\nload 1\ntrmsg val/1\n\
        load 1\ntrobj mt0\npushi 5\npushi 6\nload 1\ntrmsg val/2");
  pin "trmsg to an empty channel"
    "- | 3 instrs, cost 14 | 1, 0, 0, 1 | ch msg1"
    (send "pushi 5\nload 1\ntrmsg val/1");
  pin "trmsg to a parked message"
    "- | 6 instrs, cost 28 | 1, 0, 0, 2 | ch msgs 2"
    (send "pushi 5\nload 1\ntrmsg val/1\npushi 6\nload 1\ntrmsg val/1");
  pin "trmsg to two parked objects"
    "printi[105] | 12 instrs, cost 57 | 2, 0, 1, 0 | ch obj1"
    (send "load 1\ntrobj mt1\nload 1\ntrobj mt0\npushi 5\nload 1\ntrmsg val/1");
  pin "trmsg to io"
    "printi[4] | 3 instrs, cost 14 | 1, 0, 0, 0 | ch empty"
    (send "pushi 4\nload 0\ntrmsg printi/1");
  pin "trmsg to an int"
    "error: trmsg target is int, not a channel | 1, 0, 0, 0 | ch empty"
    (send "pushi 4\npushi 1\ntrmsg val/1");
  pin "trmsg to a network reference"
    "- | 5 instrs, cost 17 | 1, 0, 0, 0 | rmsg val[12]"
    (call_case
       ~refs:
         [ Value.Vnetref
             (Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:9 ~ip:9) ]
       (unit_asm (2, "pushi 4\npushi 3\nmul\nload 1\ntrmsg val/1") []));
  (* Sender(n, ch) sends val[10 / n] to ch and calls Sender[n - 1, ch];
     the method prints and re-parks its object under mt1, so Sender's
     one send op meets mt0 once and then mt1, whose method is fused by
     then, until 10 / 0 raises *)
  let sender =
    unit_asm (3, "defgroup g0\nload 1\ntrobj mt0\npushi 4\nload 1\nload 2\ninstof 2")
      ~tables:
        ("mtable mt0 caps=[0,1] {\nval -> b1/1\n}\n\
          mtable mt1 caps=[1,2] {\nval -> b1/1\n}\n"
        ^ group_asm ~caps:"[]" ~slots:"[2]" [ "Sender -> b2/2" ])
      [ (1, 3, "load 0\nload 1\ntrmsg printi/1\nload 2\ntrobj mt1");
        ( 2, 3,
          "pushi 10\nload 0\ndiv\nload 1\ntrmsg val/1\nload 0\npushi 1\nsub\n\
           load 1\nload 2\ninstof 2" ) ]
  in
  pin "one send op, a raising argument on a fused method"
    "error: division by zero | 10, 5, 4, 0 | ch obj1"
    (call_case ~chan:true sender);
  (* runs longer than the call: the first value stays on the stack *)
  pin "instof under a longer run"
    "printi[1] | 8 instrs, cost 35 | 2, 1, 0, 0"
    (call_case
       (unit_asm (2, "defgroup g0\npushi 9\npushi 1\nload 1\ninstof 1")
          ~tables:(group_asm ~slots:"[1]" [ "K -> b1/1" ])
          [ (1, 3, "load 0\nload 1\ntrmsg printi/1") ]));
  pin "trmsg under a longer run"
    "printi[4] | 4 instrs, cost 15 | 1, 0, 0, 0"
    (call_case (unit_asm (1, "pushi 9\npushi 4\nload 0\ntrmsg printi/1") []))

let tests =
  [ ("msg then obj", `Quick, msg_then_obj);
    ("obj then msg", `Quick, obj_then_msg);
    ("fifo messages", `Quick, fifo_messages);
    ("fifo objects", `Quick, fifo_objects);
    ("label dispatch", `Quick, label_dispatch);
    ("unmatched message parks", `Quick, unmatched_message_parks);
    ("closure captures env", `Quick, closure_captures_environment);
    ("class group mutual recursion", `Quick, class_env_mutual_recursion);
    ("nested defs", `Quick, nested_defs);
    ("expression ops", `Quick, expression_ops);
    ("if branches", `Quick, if_branches);
    ("string values", `Quick, string_values);
    ("vm dynamic errors", `Quick, vm_errors);
    ("export surfaces remote op", `Quick, export_surfaces);
    ("import surfaces remote op", `Quick, import_surfaces);
    ("remote message surfaces", `Quick, remote_msg_surfaces);
    ("fetch surfaces", `Quick, fetch_surfaces);
    ("run budget respected", `Quick, budget_respected);
    ("thread granularity", `Quick, thread_granularity);
    ("fuser fallback", `Quick, fuser_fallback);
    fused_expressions;
    ("pinned calls and sends", `Quick, pinned_calls) ]
