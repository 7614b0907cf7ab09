(* Reference-semantics tests: substitution, σ translation, the network
   reduction axioms, and the paper's worked derivations. *)

open Tyco_calculus
module Parser = Tyco_syntax.Parser
module Sugar = Tyco_syntax.Sugar

let check = Alcotest.check

let term src = Term.of_ast (Sugar.desugar (Parser.parse_proc src))

(* parsed and run, not type-checked: the ill-typed cases of "stuck on
   dynamic errors" must reach [Network.Stuck] *)
let outputs_of ?max_steps src =
  Interp.outputs ?max_steps (Parser.parse_program src)

let out_testable =
  let pp ppf (s, l, vs) =
    Fmt.pf ppf "%s:%s[%a]" s l (Fmt.list ~sep:Fmt.comma Network.pp_value) vs
  in
  Alcotest.testable pp ( = )

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)

let subst_simple () =
  let p = term "x!m[y]" in
  let q = Term.subst [ ("y", Term.Elit (Term.Lint 3)) ] p in
  check Alcotest.string "value substituted" "x!m[3]" (Term.to_string q);
  let q = Term.subst [ ("x", Term.Eid (Term.Located ("s", "x"))) ] p in
  check Alcotest.string "target substituted" "s.x!m[y]" (Term.to_string q)

let subst_respects_binders () =
  let p = term "new y (x!m[y])" in
  let q = Term.subst [ ("y", Term.Elit (Term.Lint 3)) ] p in
  check Alcotest.bool "bound y untouched" true (Term.alpha_equal p q)

let subst_avoids_capture () =
  (* substituting z := y under a binder for y must rename the binder *)
  let p = term "new y (x!m[y, z])" in
  let q = Term.subst [ ("z", Term.Eid (Term.Plain "y")) ] p in
  (* the free y (from z) and the bound y must remain distinct *)
  let frees = Term.free_ids q in
  check Alcotest.bool "free y present" true
    (List.mem (Term.Plain "y") frees);
  check Alcotest.bool "x still free" true (List.mem (Term.Plain "x") frees);
  (* and the binder was renamed: exactly two free ids *)
  check Alcotest.int "free count" 2 (List.length frees)

let subst_method_params () =
  let p = term "a?(v) = io!printi[v + w]" in
  let q = Term.subst [ ("w", Term.Elit (Term.Lint 1)); ("v", Term.Elit (Term.Lint 9)) ] p in
  (* v is a parameter: only w substituted *)
  match q with
  | Term.Obj (_, [ m ]) ->
      check Alcotest.bool "param kept" true (m.Term.m_params = [ "v" ])
  | _ -> Alcotest.fail "object shape"

(* ------------------------------------------------------------------ *)
(* σ translation and localization                                      *)

let sigma_basics () =
  check Alcotest.bool "plain uploads" true
    (Term.sigma_id ~from_:"r" (Term.Plain "x") = Term.Located ("r", "x"));
  check Alcotest.bool "located unchanged" true
    (Term.sigma_id ~from_:"r" (Term.Located ("s", "x")) = Term.Located ("s", "x"));
  check Alcotest.bool "localize strips own site" true
    (Term.localize_id ~at:"s" (Term.Located ("s", "x")) = Term.Plain "x");
  check Alcotest.bool "localize keeps foreign" true
    (Term.localize_id ~at:"s" (Term.Located ("r", "x")) = Term.Located ("r", "x"))

let sigma_respects_binders () =
  let p = term "new y (x!m[y])" in
  let q = Term.sigma ~from_:"r" p in
  (* x uploads, bound y does not *)
  check Alcotest.bool "free located" true
    (List.mem (Term.Located ("r", "x")) (Term.free_ids q));
  check Alcotest.bool "no plain x" false
    (List.mem (Term.Plain "x") (Term.free_ids q))

let sigma_localize_inverse () =
  (* localize_at s ∘ sigma_from s = identity on terms with no s-located ids *)
  let p = term "new y (x!m[y, z] | w?(a) = a![x])" in
  let q = Term.localize ~at:"r" (Term.sigma ~from_:"r" p) in
  check Alcotest.bool "inverse" true (Term.alpha_equal p q)

let alpha_equal_works () =
  let p = term "new a a!m[b]" and q = term "new c c!m[b]" in
  check Alcotest.bool "alpha equal" true (Term.alpha_equal p q);
  let r = term "new a a!m[c]" in
  check Alcotest.bool "different free" false (Term.alpha_equal p r)

(* ------------------------------------------------------------------ *)
(* Local reduction                                                     *)

let comm_basic () =
  let outs = outputs_of "new x (x![7] | x?(v) = io!printi[v])" in
  check (Alcotest.list out_testable) "one output"
    [ ("main", "printi", [ Network.Vint 7 ]) ]
    outs

let comm_label_selection () =
  let outs =
    outputs_of
      {| new x (x!b[2] | x?{ a(v) = io!printi[v], b(v) = io!printi[v * 10] }) |}
  in
  check (Alcotest.list out_testable) "selected b"
    [ ("main", "printi", [ Network.Vint 20 ]) ]
    outs

let comm_queue_order () =
  (* two messages parked before the objects arrive: FIFO per channel *)
  let outs =
    outputs_of
      {| new x (x![1] | x![2] | x?(v) = io!printi[v] | x?(v) = io!printi[v]) |}
  in
  check (Alcotest.list out_testable) "fifo"
    [ ("main", "printi", [ Network.Vint 1 ]);
      ("main", "printi", [ Network.Vint 2 ]) ]
    outs

let inst_recursion () =
  let outs =
    outputs_of
      {| def Count(n) = if n == 0 then io!printi[99] else Count[n - 1]
         in Count[5] |}
  in
  check (Alcotest.list out_testable) "loops then prints"
    [ ("main", "printi", [ Network.Vint 99 ]) ]
    outs

let mutual_recursion () =
  let outs =
    outputs_of
      {| def Even(n) = if n == 0 then io!printb[true] else Odd[n - 1]
         and Odd(n) = if n == 0 then io!printb[false] else Even[n - 1]
         in Even[7] |}
  in
  check (Alcotest.list out_testable) "7 is odd"
    [ ("main", "printb", [ Network.Vbool false ]) ]
    outs

let expr_eval () =
  let outs = outputs_of {| io!printi[(2 + 3) * 4 - 6 / 2] |} in
  check (Alcotest.list out_testable) "arithmetic"
    [ ("main", "printi", [ Network.Vint 17 ]) ]
    outs;
  let outs = outputs_of {| io!printb[1 < 2 && not (3 == 4)] |} in
  check (Alcotest.list out_testable) "booleans"
    [ ("main", "printb", [ Network.Vbool true ]) ]
    outs

(* A dynamic error reads the same whether the deterministic run or the
   exhaustive search reaches it. *)
let stuck_cases () =
  let stuck_on what run src =
    match run (Parser.parse_program src) with
    | exception Network.Stuck m -> m
    | () -> Alcotest.failf "%s does not get stuck on %s" what src
  in
  List.iter
    (fun (name, src, msg) ->
      check Alcotest.string (name ^ ", Interp.run") msg
        (stuck_on "Interp.run" (fun p -> ignore (Interp.run p)) src);
      check Alcotest.string (name ^ ", Equiv.outcomes") msg
        (stuck_on "Equiv.outcomes" (fun p -> ignore (Equiv.outcomes p)) src))
    [ ("div by zero", "io!printi[1 / 0]", "division by zero");
      ( "div by zero after a step",
        "new x (x![0] | x?(v) = io!printi[10 / v])",
        "division by zero" );
      ( "protocol error",
        "new x (x!nope[] | x?{ a() = nil })",
        "channel 'x$0': no method 'nope' (protocol error)" );
      ( "comm arity",
        "new x (x!a[1, 2] | x?{ a(u) = nil })",
        "channel 'x$0' method 'a': arity mismatch" );
      ("unbound class", "K[1] | io!printi[1]", "unbound class 'K'") ]

let run_bound () =
  let prog =
    Tyco_syntax.Parser.parse_program
      "def Loop() = Loop[] in Loop[]"
  in
  check Alcotest.bool "perpetual program hits bound" true
    (match Interp.run ~max_steps:1000 prog with
    | exception Failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Network reduction: the paper's derivations                          *)

(* §3's RPC: exactly two shipments and two communications, in order. *)
let rpc_trace () =
  let prog =
    Parser.parse_program
      {| site s { import p from r in let y = p![7] in io!printi[y] }
         site r { export new p p?(x, k) = k![x * x] } |}
  in
  let net, events = Interp.run prog in
  check (Alcotest.list out_testable) "result"
    [ ("s", "printi", [ Network.Vint 49 ]) ]
    (Network.outputs net);
  let kinds =
    List.filter_map
      (function
        | Network.Eship_msg (a, b, _) -> Some (Printf.sprintf "ship %s->%s" a b)
        | Network.Ecomm (site, _, _) -> Some (Printf.sprintf "comm %s" site)
        | Network.Eship_obj _ -> Some "ship-obj"
        | Network.Efetch _ -> Some "fetch"
        | Network.Einst _ | Network.Eoutput _ -> None)
      events
  in
  check (Alcotest.list Alcotest.string) "two-step remote communication"
    [ "ship s->r"; "comm r"; "ship r->s"; "comm s" ]
    kinds

(* §3's FETCH example: a shipped object carrying a class variable that
   is then downloaded from its defining site. *)
let fetch_after_ship () =
  let prog =
    Parser.parse_program
      {| site r { def X(k) = k![5]
                  in import a from s in (a?(go) = new k (X[k] | k?(v) = go![v])) }
         site s { export new a new g (a![g] | g?(v) = io!printi[v]) } |}
  in
  let net, events = Interp.run prog in
  check (Alcotest.list out_testable) "result"
    [ ("s", "printi", [ Network.Vint 5 ]) ]
    (Network.outputs net);
  (* the object ships r->s; instantiating X at s forces a fetch from r *)
  let has_ship_obj =
    List.exists (function Network.Eship_obj ("r", "s", _) -> true | _ -> false)
      events
  in
  let has_fetch =
    List.exists (function Network.Efetch ("s", "r", _) -> true | _ -> false)
      events
  in
  check Alcotest.bool "object shipped r->s" true has_ship_obj;
  check Alcotest.bool "class fetched s<-r" true has_fetch

let fetch_copies_group () =
  (* mutually recursive exported classes must be downloaded together *)
  let prog =
    Parser.parse_program
      {| site a { export def Ping(n, k) = if n == 0 then k![0] else Pong[n - 1, k]
                  and Pong(n, k) = if n == 0 then k![1] else Ping[n - 1, k]
                  in nil }
         site b { import Ping from a in
                  new k (Ping[5, k] | k?(v) = io!printi[v]) } |}
  in
  let net, events = Interp.run prog in
  check (Alcotest.list out_testable) "mutual recursion after fetch"
    [ ("b", "printi", [ Network.Vint 1 ]) ]
    (Network.outputs net);
  (* one fetch suffices: the whole group came over *)
  let fetches =
    List.length
      (List.filter (function Network.Efetch _ -> true | _ -> false) events)
  in
  check Alcotest.int "single fetch" 1 fetches

let lexical_io_binding () =
  (* a shipped object's io stays bound to its origin site (§3/§4) *)
  let prog =
    Parser.parse_program
      {| site server {
           def S(self) = self?{ get(p) = (p?(x) = io!printi[x] | S[self]) }
           in export new srv S[srv] }
         site client {
           import srv from server in new p (srv!get[p] | p![123]) } |}
  in
  let outs = Interp.outputs prog in
  check (Alcotest.list out_testable) "prints at server"
    [ ("server", "printi", [ Network.Vint 123 ]) ]
    outs

let ship_translates_args () =
  (* a local name sent in a remote message must arrive as a located
     name pointing back at the sender *)
  let prog =
    Parser.parse_program
      {| site a { import inlet from b in
                  new mine (inlet![mine] | mine?(v) = io!printi[v]) }
         site b { export new inlet inlet?(reply) = reply![11] } |}
  in
  let outs = Interp.outputs prog in
  check (Alcotest.list out_testable) "reply travels back"
    [ ("a", "printi", [ Network.Vint 11 ]) ]
    outs

let determinism () =
  let src =
    {| site x { import c from y in (c![1] | c![2] | c![3]) }
       site y { export new c
                def L(n) = c?(v) = (io!printi[v * n] | L[n + 1])
                in L[1] } |}
  in
  let a = outputs_of src and b = outputs_of src in
  check (Alcotest.list out_testable) "identical runs" a b

let atoms_accessor () =
  let { Interp.net; _ } = Interp.load_proc (Sugar.desugar (Parser.parse_proc "new x x![]")) in
  check Alcotest.int "one atom" 1 (List.length (Network.atoms net));
  check Alcotest.bool "quiescent" true (Network.quiescent net)

let exports_reported () =
  let loaded =
    Interp.load
      (Parser.parse_program
         {| site a { export new p (p?(x) = nil | export def K() = nil in K[]) } |})
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "names" [ ("a", "p") ] loaded.Interp.exported_names;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "classes" [ ("a", "K") ] loaded.Interp.exported_classes

let tests =
  [ ("subst simple", `Quick, subst_simple);
    ("subst respects binders", `Quick, subst_respects_binders);
    ("subst avoids capture", `Quick, subst_avoids_capture);
    ("subst method params", `Quick, subst_method_params);
    ("sigma basics", `Quick, sigma_basics);
    ("sigma respects binders", `Quick, sigma_respects_binders);
    ("sigma/localize inverse", `Quick, sigma_localize_inverse);
    ("alpha equivalence", `Quick, alpha_equal_works);
    ("comm basic", `Quick, comm_basic);
    ("comm label selection", `Quick, comm_label_selection);
    ("comm queue order", `Quick, comm_queue_order);
    ("instantiation recursion", `Quick, inst_recursion);
    ("mutual recursion", `Quick, mutual_recursion);
    ("expression evaluation", `Quick, expr_eval);
    ("stuck on dynamic errors", `Quick, stuck_cases);
    ("run bound on perpetual programs", `Quick, run_bound);
    ("paper RPC derivation", `Quick, rpc_trace);
    ("paper FETCH derivation", `Quick, fetch_after_ship);
    ("fetch copies whole group", `Quick, fetch_copies_group);
    ("lexical io binding", `Quick, lexical_io_binding);
    ("ship translates arguments", `Quick, ship_translates_args);
    ("deterministic execution", `Quick, determinism);
    ("network atoms accessor", `Quick, atoms_accessor);
    ("exports reported", `Quick, exports_reported) ]

(* ------------------------------------------------------------------ *)
(* Structural congruence (paper rules, process level)                  *)

let cong = Congruence.congruent

let congruence_monoid () =
  let p = term "x!m[1]" and q = term "y?(v) = io!printi[v]" in
  let ( <|> ) a b = Term.Par (a, b) in
  check Alcotest.bool "unit" true (cong (p <|> Term.Nil) p);
  check Alcotest.bool "comm" true (cong (p <|> q) (q <|> p));
  check Alcotest.bool "assoc" true
    (cong ((p <|> q) <|> term "z![]") (p <|> (q <|> term "z![]")));
  check Alcotest.bool "not idempotent" false (cong (p <|> p) p)

let congruence_gc () =
  check Alcotest.bool "GcN" true (cong (term "new x nil") Term.Nil);
  check Alcotest.bool "GcD" true
    (cong (term "def K() = io!print[\"x\"] in nil") Term.Nil);
  check Alcotest.bool "used def kept" false
    (cong (term "def K() = io!print[\"x\"] in K[]") Term.Nil)

let congruence_extrusion () =
  (* (new x P) | Q == new x (P | Q) when x not free in Q *)
  let lhs = Term.Par (term "new x x!m[y]", term "z![]") in
  let rhs = term "new x (x!m[y] | z![])" in
  check Alcotest.bool "ExN" true (cong lhs rhs);
  (* alpha: binder names are irrelevant *)
  check Alcotest.bool "alpha" true
    (cong (term "new a a!m[w]") (term "new b b!m[w]"));
  (* but free names are not *)
  check Alcotest.bool "free names differ" false
    (cong (term "new a a!m[w]") (term "new a a!m[v]"))

let congruence_guarded_not_extruded () =
  (* a new under a method body must NOT be pulled out *)
  let p = term "a?(v) = new x x![v]" in
  let q = Term.New ([ "x" ], term "a?(v) = x![v]") in
  check Alcotest.bool "guarded binder stays" false (cong p q)

let congruence_refl_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"congruence: reflexive on random terms"
       ~count:150 Test_syntax.gen_proc (fun ast ->
         let t = Term.of_ast (Sugar.desugar ast) in
         cong t t))

let congruence_par_comm_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"congruence: P|Q == Q|P on random terms"
       ~count:150
       QCheck2.Gen.(pair Test_syntax.gen_proc Test_syntax.gen_proc)
       (fun (a, b) ->
         let p = Term.of_ast (Sugar.desugar a) in
         let q = Term.of_ast (Sugar.desugar b) in
         cong (Term.Par (p, q)) (Term.Par (q, p))))

let congruence_nil_unit_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"congruence: P|0 == P on random terms"
       ~count:150 Test_syntax.gen_proc (fun ast ->
         let p = Term.of_ast (Sugar.desugar ast) in
         cong (Term.Par (p, Term.Nil)) p))

let congruence_tests =
  [ ("congruence monoid laws", `Quick, congruence_monoid);
    ("congruence garbage collection", `Quick, congruence_gc);
    ("congruence scope extrusion", `Quick, congruence_extrusion);
    ("congruence guarded binders", `Quick, congruence_guarded_not_extruded);
    congruence_refl_prop;
    congruence_par_comm_prop;
    congruence_nil_unit_prop ]

let tests = tests @ congruence_tests
