(* Type system tests: unification on rational trees with rows,
   generalization/instantiation, whole-program inference, and RTTI. *)

open Tyco_types
module Parser = Tyco_syntax.Parser

let check = Alcotest.check

let infers src =
  match Infer.check_proc (Parser.parse_proc src) with
  | _ -> true
  | exception Infer.Error _ -> false

let rejects src = not (infers src)

let infers_net src =
  match Infer.check_program (Parser.parse_program src) with
  | _ -> true
  | exception Infer.Error _ -> false

(* ------------------------------------------------------------------ *)
(* Unifier                                                             *)

let unify_base () =
  let ctx = Ty.ctx () in
  Ty.unify ctx (Ty.int_ ctx) (Ty.int_ ctx);
  let v = Ty.fresh_var ctx in
  Ty.unify ctx v (Ty.bool_ ctx);
  (match Ty.desc v with
  | Ty.Bool -> ()
  | _ -> Alcotest.fail "var should resolve to bool");
  check Alcotest.bool "int/bool clash" true
    (match Ty.unify ctx (Ty.int_ ctx) (Ty.bool_ ctx) with
    | exception Ty.Clash _ -> true
    | () -> false)

let unify_rows_extend () =
  let ctx = Ty.ctx () in
  (* open {m:(int) | r1}  ~  open {k:(bool) | r2}: both labels merge *)
  let a = Ty.chan_of_methods ctx ~open_:true [ ("m", [ Ty.int_ ctx ]) ] in
  let b = Ty.chan_of_methods ctx ~open_:true [ ("k", [ Ty.bool_ ctx ]) ] in
  Ty.unify ctx a b;
  (match Ty.desc a with
  | Ty.Chan row ->
      let methods, open_ = Ty.row_methods row in
      check Alcotest.bool "open" true open_;
      check (Alcotest.list Alcotest.string) "labels" [ "k"; "m" ]
        (List.sort compare (List.map fst methods))
  | _ -> Alcotest.fail "expected channel")

let unify_rows_closed_reject () =
  let ctx = Ty.ctx () in
  let closed = Ty.chan_of_methods ctx [ ("m", []) ] in
  let wants_k = Ty.chan_of_methods ctx ~open_:true [ ("k", []) ] in
  check Alcotest.bool "missing label" true
    (match Ty.unify ctx closed wants_k with
    | exception Ty.Clash _ -> true
    | () -> false)

let unify_arity_mismatch () =
  let ctx = Ty.ctx () in
  let a = Ty.chan_of_methods ctx ~open_:true [ ("m", [ Ty.int_ ctx ]) ] in
  let b = Ty.chan_of_methods ctx ~open_:true [ ("m", []) ] in
  check Alcotest.bool "arity" true
    (match Ty.unify ctx a b with exception Ty.Clash _ -> true | () -> false)

let unify_recursive () =
  (* t = {dup:(t)} unified with itself through a cycle must terminate *)
  let ctx = Ty.ctx () in
  let v = Ty.fresh_var ctx in
  let t = Ty.chan ctx (Ty.rcons ctx "dup" [ v ] (Ty.rempty ctx)) in
  Ty.unify ctx v t;
  (* now t is recursive; a structurally equal copy must unify with it *)
  let v2 = Ty.fresh_var ctx in
  let t2 = Ty.chan ctx (Ty.rcons ctx "dup" [ v2 ] (Ty.rempty ctx)) in
  Ty.unify ctx v2 t2;
  Ty.unify ctx t t2;
  check Alcotest.bool "recursive unify terminates" true true

let generalize_instantiate () =
  let ctx = Ty.ctx () in
  let a = Ty.fresh_var ctx in
  let mono_var = Ty.fresh_var ctx in
  let scheme = Ty.generalize ctx ~env_tys:[ mono_var ] [ a; mono_var ] in
  match Ty.instantiate ctx scheme with
  | [ a1; m1 ] -> (
      (match Ty.instantiate ctx scheme with
      | [ a2; m2 ] ->
          check Alcotest.bool "quantified var renewed" false
            (Ty.ty_id a1 = Ty.ty_id a2);
          check Alcotest.bool "monomorphic var shared" true
            (Ty.ty_id m1 = Ty.ty_id m2 && Ty.ty_id m1 = Ty.ty_id mono_var);
          (* instantiations unify independently *)
          Ty.unify ctx a1 (Ty.int_ ctx);
          Ty.unify ctx a2 (Ty.bool_ ctx)
      | _ -> Alcotest.fail "arity");
      match Ty.desc a with
      | Ty.Var -> ()
      | _ -> Alcotest.fail "original scheme var must stay generic")
  | _ -> Alcotest.fail "arity"

let instantiate_copies_cycles () =
  let ctx = Ty.ctx () in
  let v = Ty.fresh_var ctx in
  let t = Ty.chan ctx (Ty.rcons ctx "dup" [ v ] (Ty.rempty ctx)) in
  Ty.unify ctx v t;
  let scheme = Ty.generalize ctx ~env_tys:[] [ t ] in
  match Ty.instantiate ctx scheme with
  | [ t' ] -> (
      match Ty.desc t' with
      | Ty.Chan row -> (
          match Ty.row_methods row with
          | [ ("dup", [ inner ]) ], false ->
              check Alcotest.bool "copy is cyclic" true
                (Ty.ty_id inner = Ty.ty_id t')
          | _ -> Alcotest.fail "row shape")
      | _ -> Alcotest.fail "chan")
  | _ -> Alcotest.fail "arity"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let pp_recursive_type () =
  let ctx = Ty.ctx () in
  let v = Ty.fresh_var ctx in
  let t = Ty.chan ctx (Ty.rcons ctx "dup" [ v ] (Ty.rempty ctx)) in
  Ty.unify ctx v t;
  let s = Ty.to_string t in
  check Alcotest.bool "mentions µ back-edge" true (contains_substring s "µ");
  check Alcotest.bool "mentions method" true (contains_substring s "dup")

(* ------------------------------------------------------------------ *)
(* Inference on programs                                               *)

let infer_cell () =
  check Alcotest.bool "polymorphic cell" true
    (infers
       {| def Cell(self, v) =
            self?{ read(r) = r![v] | Cell[self, v],
                   write(u) = Cell[self, u] }
          in new x (Cell[x, 9] | new y (Cell[y, true] | nil)) |})

let infer_rejects_bad_arith () =
  check Alcotest.bool "bool + int" true (rejects "if 1 + true == 2 then nil else nil");
  check Alcotest.bool "not int" true (rejects "if not 3 then nil else nil");
  check Alcotest.bool "branch cond" true (rejects "if 42 then nil else nil")

let infer_rejects_protocol_errors () =
  check Alcotest.bool "missing method" true
    (rejects "new x (x?{ a() = nil } | x!b[])");
  check Alcotest.bool "bad arity" true
    (rejects "new x (x?{ a(u) = nil } | x!a[])");
  check Alcotest.bool "bad arg type" true
    (rejects "new x (x?{ a(u) = io!printi[u + 1] } | x!a[true])");
  check Alcotest.bool "two objects different interfaces" true
    (rejects "new x (x?{ a() = nil } | x?{ b() = nil })")

let infer_rejects_unbound () =
  check Alcotest.bool "unbound name" true (rejects "y![]");
  check Alcotest.bool "unbound class" true (rejects "K[]");
  check Alcotest.bool "dup method" true
    (rejects "new x x?{ a() = nil, a() = nil }");
  check Alcotest.bool "dup param" true (rejects "new x x?{ a(u, u) = nil }");
  check Alcotest.bool "class arity" true
    (rejects "def A(u) = nil in A[1, 2]")

let infer_io () =
  check Alcotest.bool "io printi" true (infers "io!printi[1 + 2]");
  check Alcotest.bool "io wrong type" true (rejects {| io!printi["x"] |});
  check Alcotest.bool "io unknown method" true (rejects "io!write[1]")

let infer_let_sugar () =
  check Alcotest.bool "let typed" true
    (infers
       {| new srv (srv?(q, k) = k![q * 2]
          | let d = srv![21] in io!printi[d]) |})

let infer_network_export_import () =
  check Alcotest.bool "typed network" true
    (infers_net
       {| site a { export new p p?(x, k) = k![x + 1] }
          site b { import p from a in let y = p![1] in io!printi[y] } |});
  check Alcotest.bool "type error across sites" true
    (not
       (infers_net
          {| site a { export new p p?(x, k) = k![x + 1] }
             site b { import p from a in let y = p![true] in io!printi[y] } |}))

let infer_import_before_export () =
  (* site order must not matter *)
  check Alcotest.bool "importer first" true
    (infers_net
       {| site b { import p from a in p![5] }
          site a { export new p p?(x) = io!printi[x] } |})

let infer_missing_export () =
  check Alcotest.bool "no such name" true
    (not (infers_net {| site b { import p from a in p![5] } site a { nil } |}));
  check Alcotest.bool "no such class" true
    (not
       (infers_net
          {| site b { import K from a in K[] } site a { nil } |}))

let infer_imported_class_polymorphic () =
  check Alcotest.bool "imported class at two types" true
    (infers_net
       {| site a { export def Id(v, k) = k![v] in nil }
          site b { import Id from a in
                   new p (Id[1, p] | p?(x) = io!printi[x])
                   | new q (Id[true, q] | q?(y) = io!printb[y]) } |});
  check Alcotest.bool "imported class misuse" true
    (not
       (infers_net
          {| site a { export def Pr(v) = io!printi[v] in nil }
             site b { import Pr from a in Pr[true] } |}))

let infer_shadowing () =
  check Alcotest.bool "inner new shadows import" true
    (infers_net
       {| site a { export new p p?(k) = k![1] }
          site b { import p from a in new p (p?(z) = io!printi[z] | p![2]) } |})

let infer_exported_types_reported () =
  let info =
    Infer.check_program
      (Parser.parse_program
         {| site a { export new p p?(x, k) = k![x + 1] } |})
  in
  match info.Infer.export_name_types with
  | [ ((site, name), ty) ] ->
      check Alcotest.string "site" "a" site;
      check Alcotest.string "name" "p" name;
      let s = Ty.to_string ty in
      check Alcotest.bool "has val method" true
        (String.length s > 0 && String.contains s 'v')
  | _ -> Alcotest.fail "expected one exported name"

(* ------------------------------------------------------------------ *)
(* RTTI                                                                *)

let rtti_of_src src =
  let info =
    Infer.check_program (Parser.parse_program src)
  in
  match info.Infer.export_name_types with
  | [ (_, ty) ] -> Rtti.of_ty ty
  | _ -> Alcotest.fail "expected one export"

let rtti_roundtrip () =
  let d = rtti_of_src {| site a { export new p p?(x, k) = k![x + 1] } |} in
  let enc = Tyco_support.Wire.encoder () in
  Rtti.encode enc d;
  let d' = Rtti.decode (Tyco_support.Wire.decoder (Tyco_support.Wire.to_string enc)) in
  check Alcotest.bool "equal after roundtrip" true (Rtti.equal d d');
  check Alcotest.bool "compatible with itself" true (Rtti.compatible d d')

let rtti_recursive_roundtrip () =
  let d =
    rtti_of_src
      {| site a {
           def Cell(self, v) =
             self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
           in export new c Cell[c, 1] } |}
  in
  let enc = Tyco_support.Wire.encoder () in
  Rtti.encode enc d;
  let d' = Rtti.decode (Tyco_support.Wire.decoder (Tyco_support.Wire.to_string enc)) in
  check Alcotest.bool "recursive descriptor roundtrip" true (Rtti.equal d d')

let rtti_compatibility () =
  let d1 = rtti_of_src {| site a { export new p p?(x) = io!printi[x] } |} in
  let d2 = rtti_of_src {| site a { export new p p?(x) = io!printb[x] } |} in
  check Alcotest.bool "int vs bool arg incompatible" false
    (Rtti.compatible d1 d2);
  check Alcotest.bool "any compatible" true (Rtti.compatible Rtti.any d1);
  let open_use =
    (* a channel only used for sending val: open row *)
    rtti_of_src
      {| site a { export new p nil }
         site b { import p from a in p![1] } |}
  in
  check Alcotest.bool "open use compatible with provider" true
    (Rtti.compatible open_use d1)

let rtti_malformed () =
  check Alcotest.bool "garbage rejected" true
    (match Rtti.decode (Tyco_support.Wire.decoder "\x01\x09\x00") with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false)

let tests =
  [ ("unify base types", `Quick, unify_base);
    ("unify open rows extend", `Quick, unify_rows_extend);
    ("unify closed row rejects", `Quick, unify_rows_closed_reject);
    ("unify method arity", `Quick, unify_arity_mismatch);
    ("unify recursive types", `Quick, unify_recursive);
    ("generalize/instantiate", `Quick, generalize_instantiate);
    ("instantiate copies cycles", `Quick, instantiate_copies_cycles);
    ("pp recursive type", `Quick, pp_recursive_type);
    ("infer polymorphic cell", `Quick, infer_cell);
    ("infer rejects bad arithmetic", `Quick, infer_rejects_bad_arith);
    ("infer rejects protocol errors", `Quick, infer_rejects_protocol_errors);
    ("infer rejects unbound/dups", `Quick, infer_rejects_unbound);
    ("infer io port", `Quick, infer_io);
    ("infer let sugar", `Quick, infer_let_sugar);
    ("infer cross-site", `Quick, infer_network_export_import);
    ("infer import-before-export", `Quick, infer_import_before_export);
    ("infer missing export", `Quick, infer_missing_export);
    ("infer imported class polymorphism", `Quick, infer_imported_class_polymorphic);
    ("infer shadowing", `Quick, infer_shadowing);
    ("infer reports export types", `Quick, infer_exported_types_reported);
    ("rtti roundtrip", `Quick, rtti_roundtrip);
    ("rtti recursive roundtrip", `Quick, rtti_recursive_roundtrip);
    ("rtti compatibility", `Quick, rtti_compatibility);
    ("rtti malformed", `Quick, rtti_malformed) ]

(* ------------------------------------------------------------------ *)
(* Property-based unifier laws                                         *)

(* Type "descriptions" are pure data; each property instantiates them
   into fresh mutable type graphs (unification mutates its inputs). *)
type tydesc =
  | Dint
  | Dbool
  | Dvar of int
  | Dchan of (string * tydesc list) list * bool

let rec build ctx vars = function
  | Dint -> Ty.int_ ctx
  | Dbool -> Ty.bool_ ctx
  | Dvar i -> (
      match Hashtbl.find_opt vars i with
      | Some t -> t
      | None ->
          let t = Ty.fresh_var ctx in
          Hashtbl.add vars i t;
          t)
  | Dchan (ms, open_) ->
      Ty.chan_of_methods ctx ~open_
        (List.map (fun (l, args) -> (l, List.map (build ctx vars) args)) ms)

let gen_tydesc =
  let open QCheck2.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof [ return Dint; return Dbool; map (fun i -> Dvar i) (int_range 0 3) ]
          else
            oneof
              [ return Dint;
                return Dbool;
                map (fun i -> Dvar i) (int_range 0 3);
                map2
                  (fun ms open_ -> Dchan (ms, open_))
                  (list_size (int_range 0 3)
                     (pair
                        (map (Printf.sprintf "m%d") (int_range 0 3))
                        (list_size (int_range 0 2) (self (n / 2)))))
                  bool ])
        (min size 6))

let fresh_pair d1 d2 =
  let ctx = Ty.ctx () in
  let vars = Hashtbl.create 8 in
  (ctx, build ctx vars d1, build ctx vars d2)

let dedup_labels d =
  (* generated channel rows may repeat labels; normalize them away *)
  let rec go = function
    | (Dint | Dbool | Dvar _) as d -> d
    | Dchan (ms, open_) ->
        let seen = Hashtbl.create 4 in
        let ms =
          List.filter_map
            (fun (l, args) ->
              if Hashtbl.mem seen l then None
              else begin
                Hashtbl.add seen l ();
                Some (l, List.map go args)
              end)
            ms
        in
        Dchan (ms, open_)
  in
  go d

let unify_ok ctx a b =
  match Ty.unify ctx a b with () -> true | exception Ty.Clash _ -> false

let unifier_reflexive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"unify t t (fresh copies) succeeds" ~count:300
       gen_tydesc (fun d ->
         let d = dedup_labels d in
         let ctx, a, b = fresh_pair d d in
         unify_ok ctx a b))

let unifier_symmetric =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"unify is symmetric" ~count:300
       QCheck2.Gen.(pair gen_tydesc gen_tydesc)
       (fun (d1, d2) ->
         let d1 = dedup_labels d1 and d2 = dedup_labels d2 in
         let ctx, a, b = fresh_pair d1 d2 in
         let lr = unify_ok ctx a b in
         let ctx', b', a' = fresh_pair d2 d1 in
         let rl = unify_ok ctx' b' a' in
         lr = rl))

let unifiable_implies_compatible =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"unifiable types have compatible descriptors"
       ~count:300
       QCheck2.Gen.(pair gen_tydesc gen_tydesc)
       (fun (d1, d2) ->
         let d1 = dedup_labels d1 and d2 = dedup_labels d2 in
         let ctx, a, b = fresh_pair d1 d2 in
         (* snapshot descriptors before unification mutates the graphs *)
         let da = Rtti.of_ty a and db = Rtti.of_ty b in
         if unify_ok ctx a b then Rtti.compatible da db else true))

let rtti_roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"rtti wire roundtrip on random types"
       ~count:300 gen_tydesc (fun d ->
         let ctx = Ty.ctx () in
         let t = build ctx (Hashtbl.create 8) (dedup_labels d) in
         let desc = Rtti.of_ty t in
         let enc = Tyco_support.Wire.encoder () in
         Rtti.encode enc desc;
         let desc' =
           Rtti.decode (Tyco_support.Wire.decoder (Tyco_support.Wire.to_string enc))
         in
         Rtti.equal desc desc' && Rtti.compatible desc desc'))

let unified_types_equal_descriptors =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"after unify both sides have one descriptor"
       ~count:300
       QCheck2.Gen.(pair gen_tydesc gen_tydesc)
       (fun (d1, d2) ->
         let d1 = dedup_labels d1 and d2 = dedup_labels d2 in
         let ctx, a, b = fresh_pair d1 d2 in
         if unify_ok ctx a b then Rtti.equal (Rtti.of_ty a) (Rtti.of_ty b)
         else true))

let property_tests =
  [ unifier_reflexive;
    unifier_symmetric;
    unifiable_implies_compatible;
    rtti_roundtrip_random;
    unified_types_equal_descriptors ]

let tests = tests @ property_tests

(* Node counts a descriptor's bytes cannot hold: a count of -1 (the
   9-byte varint ff ff ff ff ff ff ff ff 7f) used to reach [Array.init]
   as [Invalid_argument], and 2^40 followed by one node byte an 8 TB
   allocation.  Descriptors arrive from peers, so both are protocol
   errors. *)
let rtti_rejects_impossible_counts () =
  let malformed s =
    match Rtti.decode (Tyco_support.Wire.decoder s) with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false
  in
  check Alcotest.bool "count -1" true
    (malformed "\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00");
  let enc = Tyco_support.Wire.encoder () in
  Tyco_support.Wire.varint enc (1 lsl 40);
  Tyco_support.Wire.u8 enc 1;
  check Alcotest.bool "count 2^40" true
    (malformed (Tyco_support.Wire.to_string enc))

(* The descriptors the corpus's sites export and expect, as each site
   alone is checked for its registrations ([Api]'s isolated mode). *)
let corpus_descriptors =
  lazy
    (List.concat_map
       (fun (_, src, _) ->
         let prog =
           Tyco_syntax.Sugar.desugar_program (Dityco.Api.parse src)
         in
         List.concat_map
           (fun sd ->
             match Infer.check_site_isolated sd with
             | info ->
                 let enc d =
                   let e = Tyco_support.Wire.encoder () in
                   Rtti.encode e d;
                   Tyco_support.Wire.to_string e
                 in
                 List.map (fun (_, d) -> enc d)
                   (info.Infer.export_name_rtti @ info.Infer.export_class_rtti)
                 @ List.map (fun (_, d) -> enc d)
                     (info.Infer.import_name_expect
                     @ info.Infer.import_class_expect)
             | exception Infer.Error _ -> [])
           prog.Tyco_syntax.Ast.sites)
       Test_corpus.corpus)

(* Shaped like test_net's packet property: flipped, truncated and
   extended encodings raise [Wire.Malformed] or decode, nothing else. *)
let rtti_malformed_only =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mangled rtti raises only Malformed" ~count:2000
       QCheck2.Gen.(
         let* s = oneofl (Lazy.force corpus_descriptors) in
         let n = String.length s in
         oneof
           [ map
               (fun flips ->
                 let b = Bytes.of_string s in
                 List.iter
                   (fun (i, x) ->
                     Bytes.set_uint8 b (i mod n)
                       (Bytes.get_uint8 b (i mod n) lxor x))
                   flips;
                 Bytes.to_string b)
               (list_size (int_range 1 3) (pair nat (int_range 1 255)));
             map (fun k -> String.sub s 0 (k mod n)) nat;
             map
               (fun extra -> s ^ extra)
               (string_size ~gen:char (int_range 1 16)) ])
       (fun s ->
         (try ignore (Rtti.decode (Tyco_support.Wire.decoder s))
          with Tyco_support.Wire.Malformed _ -> ());
         true))

(* An export or import below a method, a definition or a branch is the
   programmer's mistake: a type error that names the construct. *)
let nested_site_constructs () =
  List.iter
    (fun (what, src) ->
      match Infer.check_program (Parser.parse_program src) with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Infer.Error e ->
          let msg = e.Infer.msg in
          let mentions sub =
            let n = String.length sub in
            let rec at i =
              i + n <= String.length msg
              && (String.sub msg i n = sub || at (i + 1))
            in
            at 0
          in
          check Alcotest.bool (what ^ " named: " ^ msg) true
            (mentions ("'" ^ what ^ "'") && mentions "site level");
          check Alcotest.bool (what ^ " not internal: " ^ msg) false
            (mentions "internal"))
    [ ( "export def",
        {| site a { export new p (p?(x) = io!printi[x] | export def K(v) = p![v] in K[0]) }
           site b { import p from a in import K from a in (p![1] | K[2]) } |} );
      ( "import",
        {| site a { export new p p?(x) = io!printi[x] }
           site b { if true then (import p from a in p![1]) else nil } |} );
      ( "export new",
        {| site a { def K(v) = export new p (p?(x) = io!printi[x] | p![v]) in K[1] } |} ) ]

let tests =
  tests
  @ [ ( "rtti rejects impossible counts",
        `Quick,
        rtti_rejects_impossible_counts );
      rtti_malformed_only;
      ("nested site-level constructs", `Quick, nested_site_constructs) ]
