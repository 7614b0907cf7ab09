let rec gc (p : Term.proc) : Term.proc =
  match p with
  | Term.Nil -> Term.Nil
  | Term.Par (a, b) -> (
      match (gc a, gc b) with
      | Term.Nil, q | q, Term.Nil -> q
      | a, b -> Term.Par (a, b))
  | Term.New (xs, q) ->
      let q = gc q in
      let free = Term.free_ids q in
      let xs = List.filter (fun x -> List.mem (Term.Plain x) free) xs in
      if xs = [] then q else Term.New (xs, q)
  | Term.Obj (x, ms) ->
      Term.Obj
        (x, List.map (fun (m : Term.method_) -> { m with Term.m_body = gc m.Term.m_body }) ms)
  | Term.Def (ds, q) ->
      let q = gc q in
      let ds =
        List.map (fun (d : Term.defn) -> { d with Term.d_body = gc d.Term.d_body }) ds
      in
      let used = Term.free_cids q in
      if
        List.exists
          (fun (d : Term.defn) -> List.mem (Term.Cplain d.Term.d_name) used)
          ds
      then Term.Def (ds, q)
      else q
  | Term.If (e, a, b) -> Term.If (e, gc a, gc b)
  | Term.Msg _ | Term.Inst _ -> p

let flatten p = Term.flatten_par p

(* Collect extrudable [new] binders from the top-level parallel spine.
   Callers must have alpha-renamed binders apart, so pulling a binder
   over a sibling can never capture. *)
let rec collect binders atoms (p : Term.proc) =
  match p with
  | Term.Nil -> (binders, atoms)
  | Term.Par (a, b) ->
      let binders, atoms = collect binders atoms a in
      collect binders atoms b
  | Term.New (xs, q) -> collect (binders @ xs) atoms q
  | Term.Msg _ | Term.Obj _ | Term.Inst _ | Term.Def _ | Term.If _ ->
      (binders, atoms @ [ p ])

let prenex p =
  let p = Term.rename_bound ~prefix:"x" (gc p) in
  collect [] [] p

(* Mask the prenex-bound names of an atom so sorting is stable under
   renaming; internal binders are canonicalized per atom first. *)
let coarse_key binders atom =
  let canon = Term.rename_bound ~prefix:"i" atom in
  let masked =
    Term.subst
      (List.map (fun x -> (x, Term.Eid (Term.Plain "_"))) binders)
      canon
  in
  Term.to_string masked

(* The prenex term for one order of the atoms: each binder is named
   b0, b1, ... by its first occurrence along that order (binders that
   no atom uses are dropped — another GcN opportunity exposed by
   flattening), then the renamed atoms are sorted. *)
let named binders atoms =
  let counter = ref 0 in
  let assigned = Hashtbl.create 8 in
  let assign x =
    if List.mem x binders && not (Hashtbl.mem assigned x) then begin
      Hashtbl.add assigned x (Printf.sprintf "b%d" !counter);
      incr counter
    end
  in
  List.iter
    (fun a ->
      List.iter
        (function Term.Plain x -> assign x | Term.Located _ -> ())
        (Term.free_ids a))
    atoms;
  let renaming =
    Hashtbl.fold (fun x x' acc -> (x, Term.Eid (Term.Plain x')) :: acc)
      assigned []
  in
  let atoms = List.sort compare (List.map (Term.subst renaming) atoms) in
  let body = Term.par_list atoms in
  let canon_binders = List.init !counter (Printf.sprintf "b%d") in
  if canon_binders = [] then body else Term.New (canon_binders, body)

(* Orders of tied atoms tried at most: the product of the tie groups'
   factorials.  Past it the input order of each group stands, and
   congruent terms may then get different normal forms. *)
let max_tie_orders = 720

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat
        (List.mapi
           (fun i x ->
             List.map
               (fun rest -> x :: rest)
               (permutations (List.filteri (fun j _ -> j <> i) xs)))
           xs)

let normal_form p =
  let binders, atoms = prenex p in
  let atoms = List.map (Term.rename_bound ~prefix:"i") atoms in
  let sorted =
    List.stable_sort
      (fun (k1, _) (k2, _) -> String.compare k1 k2)
      (List.map (fun a -> (coarse_key binders a, a)) atoms)
  in
  (* the key masks every binder, so atoms with equal keys differ at
     most in which binders they use: their order decides the naming *)
  let rec group = function
    | [] -> []
    | (k, a) :: rest ->
        let tied, rest = List.partition (fun (k', _) -> k' = k) rest in
        (a :: List.map snd tied) :: group rest
  in
  let groups = group sorted in
  (* the product of the groups' factorials, saturating past the bound *)
  let orders =
    let cap n = min n (max_tie_orders + 1) in
    let rec fact n = if n <= 1 then 1 else cap (n * fact (n - 1)) in
    List.fold_left (fun acc g -> cap (acc * fact (List.length g))) 1 groups
  in
  let tried =
    if orders > max_tie_orders then [ List.concat groups ]
    else
      List.fold_right
        (fun g tails ->
          List.concat_map
            (fun perm -> List.map (fun tail -> perm @ tail) tails)
            (permutations g))
        groups [ [] ]
  in
  (* over every order of every group, the least named term is the same
     whatever order the input had *)
  match List.map (named binders) tried with
  | t :: ts -> List.fold_left min t ts
  | [] -> assert false (* [tried] always holds at least one order *)

let congruent p q = normal_form p = normal_form q
