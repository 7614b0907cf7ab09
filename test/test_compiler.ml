(* Compiler tests: code generation shape, byte-code serialization,
   sub-unit extraction and dynamic linking. *)

open Tyco_compiler
module Parser = Tyco_syntax.Parser

let check = Alcotest.check

let compile src = Compile.compile_proc (Parser.parse_proc src)

let instrs (u : Block.unit_) =
  Array.to_list u.blocks
  |> List.concat_map (fun (b : Block.block) -> Array.to_list b.blk_code)

let has_instr u pred = List.exists pred (instrs u)

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)

let compile_message () =
  let u = compile "new x x!m[1, 2]" in
  check Alcotest.int "one block" 1 (Array.length u.Block.blocks);
  check Alcotest.bool "trmsg emitted" true
    (has_instr u (function
      | Instr.Trmsg { label = "m"; argc = 2; _ } -> true
      | _ -> false));
  check Alcotest.bool "newc emitted" true
    (has_instr u (function Instr.New_chan _ -> true | _ -> false))

let compile_object () =
  let u = compile "new x x?{ a(u) = io!printi[u], b() = nil }" in
  check Alcotest.int "mtable" 1 (Array.length u.Block.mtables);
  let mt = u.Block.mtables.(0) in
  check Alcotest.int "two methods" 2 (Array.length mt.Block.mt_entries);
  (* the a-method captures io *)
  check Alcotest.int "captures io" 1 (Array.length mt.Block.mt_captures);
  check Alcotest.bool "trobj" true
    (has_instr u (function Instr.Trobj 0 -> true | _ -> false))

let compile_def_group () =
  let u =
    compile
      {| def A(n) = if n == 0 then nil else B[n - 1]
         and B(n) = A[n]
         in A[3] |}
  in
  check Alcotest.int "one group" 1 (Array.length u.Block.groups);
  let g = u.Block.groups.(0) in
  check Alcotest.int "two classes" 2 (Array.length g.Block.grp_classes);
  check Alcotest.int "no captures" 0 (Array.length g.Block.grp_captures);
  check Alcotest.bool "defgroup emitted" true
    (has_instr u (function Instr.Defgroup 0 -> true | _ -> false));
  check Alcotest.bool "instof emitted" true
    (has_instr u (function Instr.Instof 1 -> true | _ -> false))

let compile_class_captures_names () =
  let u = compile "new db def G(k) = db![k] in G[1]" in
  let g = u.Block.groups.(0) in
  check Alcotest.int "captures db" 1 (Array.length g.Block.grp_captures)

let compile_if () =
  (* the condition must be non-constant or the peephole pass folds the
     branch away entirely *)
  let u = compile "new c c?(v) = (if v < 2 then io!printi[1] else io!printi[2])" in
  check Alcotest.bool "jmpf" true
    (has_instr u (function Instr.Jump_if_false _ -> true | _ -> false));
  check Alcotest.bool "jmp" true
    (has_instr u (function Instr.Jump _ -> true | _ -> false))

let compile_import_continuation () =
  let u =
    Compile.compile_program
      (Parser.parse_program
         {| site b { new local import p from a in p![1] | local![2] } |})
    |> List.assoc "b"
  in
  check Alcotest.bool "import instr" true
    (has_instr u (function
      | Instr.Import_name { site = "a"; name = "p"; _ } -> true
      | _ -> false));
  (* the continuation is a separate block with param 0 = imported value *)
  check Alcotest.int "two blocks" 2 (Array.length u.Block.blocks)

let compile_export () =
  let u =
    Compile.compile_program
      (Parser.parse_program
         {| site a { export new p p?(x) = nil | export def K() = nil in K[] } |})
    |> List.assoc "a"
  in
  check Alcotest.bool "export name" true
    (has_instr u (function Instr.Export_name "p" -> true | _ -> false));
  check Alcotest.bool "export class" true
    (has_instr u (function Instr.Export_class ("K", _) -> true | _ -> false))

let compile_unbound_fails () =
  let fails src =
    match compile src with exception Compile.Error _ -> true | _ -> false
  in
  check Alcotest.bool "unbound name" true (fails "zz![]");
  check Alcotest.bool "unbound class" true (fails "K[1]")

let compile_deterministic () =
  let a = compile "new x (x![] | x?(  ) = io!print[\"hi\"])" in
  let b = compile "new x (x![] | x?() = io!print[\"hi\"])" in
  check Alcotest.string "same bytecode" (Bytecode.unit_to_string a)
    (Bytecode.unit_to_string b)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let sources =
  [ "nil";
    "new x x!m[1, true, \"s\"]";
    "new x (x?(u) = io!printi[u] | x![1])";
    {| def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v],
                                  write(u) = Cell[self, u] }
       in new c (Cell[c, 0] | new r (c!read[r] | r?(v) = io!printi[v])) |};
    "if 1 == 1 then (if true then nil else nil) else io!printi[0]";
    "new a, b, c (a![b] | b![c] | c?(z) = z!m[])" ]

let bytecode_roundtrip () =
  List.iter
    (fun src ->
      let u = compile src in
      let s = Bytecode.unit_to_string u in
      let u' = Bytecode.unit_of_string s in
      check Alcotest.string (Printf.sprintf "roundtrip %s" src) s
        (Bytecode.unit_to_string u'))
    sources

let bytecode_rejects_garbage () =
  let bad s =
    match Bytecode.unit_of_string s with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false
  in
  check Alcotest.bool "empty" true (bad "");
  check Alcotest.bool "empty unit" true (bad "\x00\x00\x00\x00");
  check Alcotest.bool "truncated" true
    (bad (String.sub (Bytecode.unit_to_string (compile "new x x![]")) 0 4))

(* Operands the VM would index with are references too: a jump to -1
   (the 9-byte varint ff ff ff ff ff ff ff ff 7f) used to decode, link
   and then crash the process in the step loop, a load past the frame
   escaped as a bare [Invalid_argument], and a backward jump made a
   thread that never ends. *)
let one_block_unit ~nslots instrs =
  (* 1 block "b", 1 param, [nslots] slots, the given instructions; no
     mtables, no groups, entry b0 *)
  "\x01\x01b\x01" ^ String.make 1 (Char.chr nslots)
  ^ String.make 1 (Char.chr (List.length instrs))
  ^ String.concat "" instrs ^ "\x00\x00\x00"

let bytecode_rejects_bad_refs () =
  let malformed s =
    match Bytecode.unit_of_string s with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false
  in
  (* corrupt a valid unit's entry index *)
  let u = compile "new x x![]" in
  let forged = { u with Block.entry = 99 } in
  check Alcotest.bool "entry out of range" true
    (malformed (Bytecode.unit_to_string forged));
  check Alcotest.bool "well-formed control" false
    (malformed (one_block_unit ~nslots:1 [ "\x03\x00" ]));
  check Alcotest.bool "jump to -1" true
    (malformed
       (one_block_unit ~nslots:1
          [ "\x08\xff\xff\xff\xff\xff\xff\xff\xff\x7f" ]));
  check Alcotest.bool "jump past the end" true
    (malformed (one_block_unit ~nslots:1 [ "\x08\x02" ]));
  check Alcotest.bool "jump to the end" false
    (malformed (one_block_unit ~nslots:1 [ "\x08\x01" ]));
  check Alcotest.bool "jump to itself" true
    (malformed (one_block_unit ~nslots:1 [ "\x08\x00" ]));
  check Alcotest.bool "jump backwards" true
    (malformed (one_block_unit ~nslots:1 [ "\x00\x02"; "\x08\x00" ]));
  check Alcotest.bool "load 1000" true
    (malformed (one_block_unit ~nslots:1 [ "\x03\xe8\x07" ]));
  check Alcotest.bool "store past the frame" true
    (malformed (one_block_unit ~nslots:2 [ "\x04\x02" ]));
  check Alcotest.bool "newc past the frame" true
    (malformed (one_block_unit ~nslots:2 [ "\x0a\x05" ]));
  check Alcotest.bool "negative table count" true
    (malformed "\xff\xff\xff\xff\xff\xff\xff\xff\x7f")

(* Every operand of a decoded unit is one the VM can use as is, and
   every jump goes forward. *)
let operands_in_range (u : Block.unit_) =
  let nb = Array.length u.blocks in
  let block_ok i = i >= 0 && i < nb in
  block_ok u.entry
  && Array.for_all
       (fun (b : Block.block) ->
         let n = Array.length b.blk_code in
         let slot s = s >= 0 && s < b.blk_nslots in
         let slots = Array.for_all slot in
         let at = ref (-1) in
         Array.for_all
           (fun ins ->
             incr at;
             match ins with
             | Instr.Load s | Instr.Store s | Instr.New_chan s
             | Instr.Export_class (_, s) ->
                 slot s
             | Instr.Jump pc | Instr.Jump_if_false pc -> pc > !at && pc <= n
             | Instr.Trmsg { argc; _ } | Instr.Instof argc -> argc >= 0
             | Instr.Trobj mt ->
                 mt >= 0
                 && mt < Array.length u.mtables
                 && slots u.mtables.(mt).mt_captures
             | Instr.Defgroup g ->
                 g >= 0
                 && g < Array.length u.groups
                 && slots u.groups.(g).grp_captures
                 && slots u.groups.(g).grp_slots
                 && Array.length u.groups.(g).grp_slots
                    = Array.length u.groups.(g).grp_classes
             | Instr.Import_name { cont; captures; _ }
             | Instr.Import_class { cont; captures; _ } ->
                 block_ok cont && slots captures
             | _ -> true)
           b.blk_code)
       u.blocks
  && Array.for_all
       (fun (mt : Block.mtable) ->
         Array.for_all (fun (e : Block.mentry) -> block_ok e.me_block)
           mt.mt_entries)
       u.mtables
  && Array.for_all
       (fun (g : Block.group) ->
         Array.for_all (fun (c : Block.class_sig) -> block_ok c.cls_block)
           g.grp_classes)
       u.groups

(* The bytecode fuzz: overwrite, insert or delete a few bytes of a real
   unit; decoding either raises [Wire.Malformed] or yields a unit whose
   every reference, jump and slot is in range.  Any other exception
   fails the property. *)
let bytecode_mutation_fuzz =
  let fuzz_sources =
    sources
    @ [ "import p from a in p![1, true]";
        "import K from a in K[5]";
        "export new p p?(x) = io!printi[x + 1]";
        "export def Loop(n) = if n > 0 then Loop[n - 1] else nil in Loop[3]" ]
  in
  let encoded =
    Array.of_list
      (List.map (fun src -> Bytecode.unit_to_string (compile src)) fuzz_sources)
  in
  let mutate s edits =
    List.fold_left
      (fun s (kind, pos, byte) ->
        let n = String.length s in
        if n = 0 then s
        else
          let pos = pos mod n in
          let c = String.make 1 (Char.chr byte) in
          match kind with
          | 0 -> String.sub s 0 pos ^ c ^ String.sub s (pos + 1) (n - pos - 1)
          | 1 -> String.sub s 0 pos ^ c ^ String.sub s pos (n - pos)
          | _ -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1))
      s edits
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mutated bytecode raises only Malformed"
       ~count:2000
       QCheck2.Gen.(
         pair
           (int_bound (Array.length encoded - 1))
           (list_size (int_range 1 4)
              (triple (int_bound 2) nat (int_bound 255))))
       (fun (which, edits) ->
         match Bytecode.unit_of_string (mutate encoded.(which) edits) with
         | exception Tyco_support.Wire.Malformed _ -> true
         | u -> operands_in_range u))

let bytecode_compact () =
  (* the compactness claim (E2): byte-code is smaller than the source *)
  let src =
    {| def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v],
                                  write(u) = Cell[self, u] }
       in new c (Cell[c, 0] | new r (c!read[r] | r?(v) = io!printi[v])) |}
  in
  let u = compile src in
  check Alcotest.bool "smaller than source" true
    (Bytecode.byte_size u < String.length src)

(* ------------------------------------------------------------------ *)
(* Extraction and linking                                              *)

let extraction_closure () =
  (* an object whose method body creates another object: both method
     tables must ship *)
  let u = compile "new x, y (x?(a) = (y?(b) = io!printi[b + a]) | x![1])" in
  check Alcotest.int "two mtables" 2 (Array.length u.Block.mtables);
  let sub, root = Bytecode.extract_mtable u 1 in
  (* mtable 1 is the outer object (compiled second); its body contains
     the inner object, so both travel *)
  ignore root;
  check Alcotest.bool "nested code travels" true
    (Array.length sub.Block.mtables >= 1);
  (* extracting the inner object alone must not drag the outer one *)
  let sub0, _ = Bytecode.extract_mtable u 0 in
  check Alcotest.bool "no over-shipping" true
    (Array.length sub0.Block.blocks <= Array.length sub.Block.blocks)

let extraction_group () =
  let u =
    compile
      {| def A(n) = if n == 0 then nil else B[n - 1] and B(n) = A[n] in A[1] |}
  in
  let sub, g = Bytecode.extract_group u 0 in
  check Alcotest.int "group included" 1 (Array.length sub.Block.groups);
  check Alcotest.int "root remapped" 0 g;
  check Alcotest.int "both class blocks" 2
    (Array.length sub.Block.groups.(0).Block.grp_classes)

let linking_offsets () =
  let u1 = compile "new x x![]" in
  let u2 = compile "new y (y?(v) = io!printi[v] | y![3])" in
  let area, entry1 = Link.of_unit u1 in
  check Alcotest.int "entry first" 0 entry1;
  let o = Link.link area u2 in
  check Alcotest.int "block offset" (Array.length u1.Block.blocks) o.Link.blk_off;
  (* the linked copy's Trobj indices must be shifted *)
  let linked_entry = Link.block area (u2.Block.entry + o.Link.blk_off) in
  let shifted_ok =
    Array.for_all
      (function
        | Instr.Trobj mt -> mt >= o.Link.mt_off
        | _ -> true)
      linked_entry.Block.blk_code
  in
  check Alcotest.bool "mtable refs shifted" true shifted_ok;
  check Alcotest.int "n_blocks"
    (Array.length u1.Block.blocks + Array.length u2.Block.blocks)
    (Link.n_blocks area)

let snapshot_cache () =
  let u = compile "new x x![]" in
  let area, _ = Link.of_unit u in
  let s1 = Link.snapshot area in
  let s2 = Link.snapshot area in
  check Alcotest.bool "cached" true (s1 == s2);
  ignore (Link.link area (compile "nil"));
  let s3 = Link.snapshot area in
  check Alcotest.bool "invalidated" false (s1 == s3)

let disasm_readable () =
  let u = compile "new x (x![1] | x?(v) = io!printi[v])" in
  let s = Disasm.to_string u in
  let has sub =
    let nh = String.length s and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub s i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "trmsg shown" true (has "trmsg");
  check Alcotest.bool "trobj shown" true (has "trobj");
  check Alcotest.bool "newc shown" true (has "newc");
  (* one instruction printer: each line of the indexed listing, minus
     its index, is the assembly's line for that instruction *)
  let lines s = List.map String.trim (String.split_on_char '\n' s) in
  let listed u =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when i > 0 && int_of_string_opt (String.sub l 0 i) <> None ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (lines (Disasm.to_string u))
  in
  let assembled u =
    let in_block = ref false in
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"block " l then begin
          in_block := true;
          None
        end
        else if l = "}" then begin
          in_block := false;
          None
        end
        else if !in_block then Some l
        else None)
      (lines (Asm.print u))
  in
  let units =
    Compile.compile_program
      (Parser.parse_program
         {| site a { export new p (p?(x) = io!printi[x] | export def K(v) = p![v] in K[0]) }
            site b { import p from a in import K from a in (p![1] | K[2]) } |})
  in
  let all = List.concat_map (fun (_, u) -> listed u) units in
  List.iter
    (fun op ->
      check Alcotest.bool (op ^ " listed") true
        (List.exists (String.starts_with ~prefix:(op ^ " ")) all))
    [ "instof"; "exportc"; "import"; "importc" ];
  List.iter
    (fun (site, u) ->
      check Alcotest.int (site ^ ": every instruction listed")
        (Block.instr_count u) (List.length (listed u));
      check (Alcotest.list Alcotest.string) (site ^ ": listing = assembly")
        (assembled u) (listed u))
    units

let stats_consistent () =
  let u = compile (List.nth sources 3) in
  let st = Disasm.stats u in
  check Alcotest.int "instr count" (Block.instr_count u) st.Disasm.n_instrs;
  check Alcotest.int "bytes" (Bytecode.byte_size u) st.Disasm.n_bytes

let tests =
  [ ("compile message", `Quick, compile_message);
    ("compile object", `Quick, compile_object);
    ("compile def group", `Quick, compile_def_group);
    ("compile class captures", `Quick, compile_class_captures_names);
    ("compile if", `Quick, compile_if);
    ("compile import continuation", `Quick, compile_import_continuation);
    ("compile export", `Quick, compile_export);
    ("compile unbound fails", `Quick, compile_unbound_fails);
    ("compile deterministic", `Quick, compile_deterministic);
    ("bytecode roundtrip", `Quick, bytecode_roundtrip);
    ("bytecode rejects garbage", `Quick, bytecode_rejects_garbage);
    ("bytecode rejects bad refs", `Quick, bytecode_rejects_bad_refs);
    ("bytecode compact", `Quick, bytecode_compact);
    bytecode_mutation_fuzz;
    ("extraction closure", `Quick, extraction_closure);
    ("extraction group", `Quick, extraction_group);
    ("linking offsets", `Quick, linking_offsets);
    ("snapshot cache", `Quick, snapshot_cache);
    ("disasm readable", `Quick, disasm_readable);
    ("stats consistent", `Quick, stats_consistent) ]

(* ------------------------------------------------------------------ *)
(* Peephole optimization                                               *)

let compile_raw src = Compile.compile_proc ~optimize:false (Parser.parse_proc src)

let peephole_folds_constants () =
  let u = compile "io!printi[2 + 3 * 4]" in
  check Alcotest.bool "folded to 14" true
    (has_instr u (function Instr.Push_int 14 -> true | _ -> false));
  check Alcotest.bool "no binop left" false
    (has_instr u (function Instr.Binop _ -> true | _ -> false))

let peephole_folds_right_nested () =
  let u = compile "io!printb[true && (1 < 2)]" in
  check Alcotest.bool "folded to true" true
    (has_instr u (function Instr.Push_bool true -> true | _ -> false));
  check Alcotest.bool "no binop left" false
    (has_instr u (function Instr.Binop _ -> true | _ -> false))

let peephole_keeps_div_by_zero () =
  let u = compile "io!printi[1 / 0]" in
  check Alcotest.bool "division preserved" true
    (has_instr u (function Instr.Binop Tyco_syntax.Ast.Div -> true | _ -> false))

let peephole_eliminates_constant_branch () =
  let u = compile "if true then io!printi[1] else io!printi[2]" in
  check Alcotest.bool "no conditional jump" false
    (has_instr u (function Instr.Jump_if_false _ -> true | _ -> false))

let peephole_shrinks () =
  let src = "if 1 < 2 then io!printi[10 * 10] else io!printi[2 + 2]" in
  check Alcotest.bool "optimized smaller" true
    (Block.instr_count (compile src) < Block.instr_count (compile_raw src))

let peephole_preserves_semantics () =
  (* run each corpus program under both compilations on a bare VM *)
  let corpus =
    [ "io!printi[2 + 3 * 4]";
      "if 1 < 2 then io!printi[1] else io!printi[2]";
      "if false then io!printi[3] else io!printi[4]";
      {| def F(n, k) = if n == 0 then k![100 - 1] else F[n - 1, k]
         in new k (F[3 + 2, k] | k?(v) = io!printi[v * (1 + 1)]) |};
      "new x (x![2 * 2] | x?(v) = (if v == 4 then io!printi[v] else nil))" ]
  in
  List.iter
    (fun src ->
      let run unit_ =
        let area, entry = Tyco_compiler.Link.of_unit unit_ in
        let vm = Tyco_vm.Machine.create area in
        let outs = ref [] in
        let io =
          Tyco_vm.Machine.builtin_chan vm "io" (fun l args ->
              outs := (l, List.map (Fmt.str "%a" Tyco_vm.Value.pp) args) :: !outs)
        in
        Tyco_vm.Machine.spawn_entry vm ~entry ~io;
        ignore (Tyco_vm.Machine.run vm ~budget:100_000);
        List.rev !outs
      in
      let opt = run (compile src) and raw = run (compile_raw src) in
      if opt <> raw then
        Alcotest.failf "peephole changed behaviour of: %s" src)
    corpus

let peephole_tests =
  [ ("peephole folds constants", `Quick, peephole_folds_constants);
    ("peephole folds right-nested", `Quick, peephole_folds_right_nested);
    ("peephole keeps div-by-zero", `Quick, peephole_keeps_div_by_zero);
    ("peephole kills constant branch", `Quick, peephole_eliminates_constant_branch);
    ("peephole shrinks code", `Quick, peephole_shrinks);
    ("peephole preserves semantics", `Quick, peephole_preserves_semantics) ]

let tests = tests @ peephole_tests

(* ------------------------------------------------------------------ *)
(* Textual assembly                                                    *)

let asm_roundtrip () =
  List.iter
    (fun src ->
      let u = compile src in
      let text = Asm.print u in
      let u' = Asm.parse text in
      check Alcotest.string
        (Printf.sprintf "asm roundtrip %s" src)
        (Bytecode.unit_to_string u)
        (Bytecode.unit_to_string u'))
    sources

let asm_roundtrip_network () =
  let units =
    Compile.compile_program
      (Parser.parse_program
         {| site a { export new p (p?(x) = io!printi[x] | export def K(v) = p![v] in nil) }
            site b { import p from a in import K from a in (p![1] | K[2]) } |})
  in
  List.iter
    (fun (site, u) ->
      let u' = Asm.parse (Asm.print u) in
      check Alcotest.string
        (Printf.sprintf "site %s" site)
        (Bytecode.unit_to_string u)
        (Bytecode.unit_to_string u'))
    units

let asm_errors () =
  let bad s = match Asm.parse s with exception Asm.Error _ -> true | _ -> false in
  check Alcotest.bool "no header" true (bad "block b0 \"x\" params=0 slots=0 {\n}\n");
  check Alcotest.bool "unknown instr" true
    (bad "unit entry=b0\nblock b0 \"x\" params=0 slots=0 {\n  frobnicate 3\n}\n");
  check Alcotest.bool "unterminated" true
    (bad "unit entry=b0\nblock b0 \"x\" params=0 slots=0 {\n  pushi 1\n");
  check Alcotest.bool "dangling ref" true
    (bad "unit entry=b0\nblock b0 \"x\" params=0 slots=0 {\n  trobj mt7\n}\n");
  check Alcotest.bool "sparse ids" true
    (bad "unit entry=b1\nblock b1 \"x\" params=0 slots=0 {\n}\n")

let asm_hand_written_runs () =
  (* hand-author a unit that prints 5: load io (slot 0), push 5, send *)
  let text =
    {|unit entry=b0
block b0 "entry" params=1 slots=1 {
  pushi 5
  load 0
  trmsg printi/1
}
|}
  in
  let u = Asm.parse text in
  let area, entry = Link.of_unit u in
  let vm = Tyco_vm.Machine.create area in
  let got = ref [] in
  let io = Tyco_vm.Machine.builtin_chan vm "io" (fun l args ->
      got := (l, args) :: !got) in
  Tyco_vm.Machine.spawn_entry vm ~entry ~io;
  ignore (Tyco_vm.Machine.run vm ~budget:100);
  match !got with
  | [ ("printi", [ Tyco_vm.Value.Vint 5 ]) ] -> ()
  | _ -> Alcotest.fail "hand-written assembly misbehaved"

let asm_tests =
  [ ("asm roundtrip", `Quick, asm_roundtrip);
    ("asm roundtrip network units", `Quick, asm_roundtrip_network);
    ("asm rejects malformed", `Quick, asm_errors);
    ("asm hand-written program", `Quick, asm_hand_written_runs) ]

let tests = tests @ asm_tests

(* A block's frame is allocated whole at every spawn, so the decoder
   bounds it: a unit claiming 2^40 slots used to decode, and its first
   spawn would have asked for 2^40 words.  The compiler refuses what
   the decoder would. *)
let bytecode_bounds_frames () =
  let unit_ ~nparams ~nslots =
    { Block.blocks =
        [| { Block.blk_id = 0; blk_name = "b"; blk_nparams = nparams;
             blk_nslots = nslots; blk_code = [||] } |];
      mtables = [||];
      groups = [||];
      entry = 0 }
  in
  let decodes u =
    match Bytecode.unit_of_string (Bytecode.unit_to_string u) with
    | u' -> Some u'
    | exception Tyco_support.Wire.Malformed _ -> None
  in
  check Alcotest.bool "2^40 slots rejected" true
    (decodes (unit_ ~nparams:1 ~nslots:(1 lsl 40)) = None);
  check Alcotest.bool "one past the cap rejected" true
    (decodes (unit_ ~nparams:1 ~nslots:(Block.max_slots + 1)) = None);
  check Alcotest.bool "more parameters than slots rejected" true
    (decodes (unit_ ~nparams:3 ~nslots:2) = None);
  (match decodes (unit_ ~nparams:1 ~nslots:Block.max_slots) with
  | Some u ->
      check Alcotest.int "a unit at the cap decodes" Block.max_slots
        u.Block.blocks.(0).Block.blk_nslots
  | None -> Alcotest.fail "a unit at the cap must decode");
  let names n = String.concat ", " (List.init n (Printf.sprintf "x%d")) in
  let compiles n =
    match compile (Printf.sprintf "new %s x0![]" (names n)) with
    | _ -> true
    | exception Compile.Error _ -> false
  in
  check Alcotest.bool "a block past the cap does not compile" false
    (compiles Block.max_slots);
  check Alcotest.bool "a block below it does" true (compiles 1000)

let tests =
  tests @ [ ("bytecode bounds frame sizes", `Quick, bytecode_bounds_frames) ]
