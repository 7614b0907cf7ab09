module Wire = Tyco_support.Wire

type node =
  | Nany
  | Nint
  | Nbool
  | Nstr
  | Nchan of (string * int list) list * bool  (* methods, open row *)
  | Ntuple of int list                        (* class parameter tuple *)

type t = { nodes : node array; root : int }

let any = { nodes = [| Nany |]; root = 0 }

let build_graph roots_of =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let nodes = ref [] in
  let count = ref 0 in
  let alloc () =
    let i = !count in
    incr count;
    nodes := (i, Nany) :: !nodes;
    i
  in
  let set i n = nodes := (i, n) :: List.remove_assoc i !nodes in
  let rec go ty =
    let id = Ty.ty_id ty in
    match Hashtbl.find_opt memo id with
    | Some i -> i
    | None ->
        let i = alloc () in
        Hashtbl.add memo id i;
        (match Ty.desc ty with
        | Ty.Var -> set i Nany
        | Ty.Int -> set i Nint
        | Ty.Bool -> set i Nbool
        | Ty.Str -> set i Nstr
        | Ty.Chan row ->
            let methods, open_ = Ty.row_methods row in
            let ms =
              List.map (fun (l, ts) -> (l, List.map go ts)) methods
            in
            set i (Nchan (ms, open_)));
        i
  in
  let root = roots_of go alloc set in
  let arr = Array.make !count Nany in
  List.iter (fun (i, n) -> arr.(i) <- n) !nodes;
  { nodes = arr; root }

let of_ty ty = build_graph (fun go _alloc _set -> go ty)

let of_tys tys =
  build_graph (fun go alloc set ->
      let root = alloc () in
      set root (Ntuple (List.map go tys));
      root)

let node t i = t.nodes.(i)

let compatible a b =
  let memo = Hashtbl.create 16 in
  let rec go i j =
    if Hashtbl.mem memo (i, j) then true
    else begin
      Hashtbl.add memo (i, j) ();
      match (node a i, node b j) with
      | Nany, _ | _, Nany -> true
      | Nint, Nint | Nbool, Nbool | Nstr, Nstr -> true
      | Nchan (ms1, open1), Nchan (ms2, open2) ->
          (* shared labels: arities and argument graphs must agree
             (note [go]'s arguments index graphs a and b respectively,
             so only the a-side drives the recursion) *)
          List.for_all
            (fun (l, args) ->
              match List.assoc_opt l ms2 with
              | Some args' ->
                  List.length args = List.length args'
                  && List.for_all2 go args args'
              | None -> open2)
            ms1
          (* labels only the b-side demands must be tolerated by a *)
          && List.for_all
               (fun (l, _) -> List.mem_assoc l ms1 || open1)
               ms2
      | Ntuple a1, Ntuple a2 ->
          List.length a1 = List.length a2 && List.for_all2 go a1 a2
      | (Nint | Nbool | Nstr | Nchan _ | Ntuple _), _ -> false
    end
  in
  go a.root b.root

let equal a b =
  (* Isomorphism-from-root via a functional bisimulation: each node of
     [a] must map to exactly one node of [b]. *)
  let mapping = Hashtbl.create 16 in
  let rec go i j =
    match Hashtbl.find_opt mapping i with
    | Some j' -> j = j'
    | None -> (
        Hashtbl.add mapping i j;
        match (node a i, node b j) with
        | Nany, Nany | Nint, Nint | Nbool, Nbool | Nstr, Nstr -> true
        | Nchan (ms1, o1), Nchan (ms2, o2) ->
            o1 = o2
            && List.length ms1 = List.length ms2
            && List.for_all
                 (fun (l, args) ->
                   match List.assoc_opt l ms2 with
                   | Some args' ->
                       List.length args = List.length args'
                       && List.for_all2 go args args'
                   | None -> false)
                 ms1
        | Ntuple a1, Ntuple a2 ->
            List.length a1 = List.length a2 && List.for_all2 go a1 a2
        | (Nany | Nint | Nbool | Nstr | Nchan _ | Ntuple _), _ -> false)
  in
  go a.root b.root

let encode enc t =
  Wire.varint enc (Array.length t.nodes);
  Array.iter
    (fun n ->
      match n with
      | Nany -> Wire.u8 enc 0
      | Nint -> Wire.u8 enc 1
      | Nbool -> Wire.u8 enc 2
      | Nstr -> Wire.u8 enc 3
      | Nchan (ms, open_) ->
          Wire.u8 enc 4;
          Wire.bool enc open_;
          Wire.list enc
            (fun enc (l, args) ->
              Wire.string enc l;
              Wire.list enc Wire.varint args)
            ms
      | Ntuple args ->
          Wire.u8 enc 5;
          Wire.list enc Wire.varint args)
    t.nodes;
  Wire.varint enc t.root

let decode dec =
  let n = Wire.read_count dec in
  if n = 0 then raise (Wire.Malformed "rtti: empty node table");
  let nodes =
    Array.init n (fun _ ->
        match Wire.read_u8 dec with
        | 0 -> Nany
        | 1 -> Nint
        | 2 -> Nbool
        | 3 -> Nstr
        | 4 ->
            let open_ = Wire.read_bool dec in
            let ms =
              Wire.read_list dec (fun dec ->
                  let l = Wire.read_string dec in
                  let args = Wire.read_list dec Wire.read_varint in
                  (l, args))
            in
            Nchan (ms, open_)
        | 5 -> Ntuple (Wire.read_list dec Wire.read_varint)
        | k -> raise (Wire.Malformed (Printf.sprintf "rtti: node tag %d" k)))
  in
  let root = Wire.read_varint dec in
  let check_index i =
    if i < 0 || i >= n then raise (Wire.Malformed "rtti: node index out of range")
  in
  check_index root;
  Array.iter
    (function
      | Nchan (ms, _) ->
          List.iter (fun (_, args) -> List.iter check_index args) ms
      | Ntuple args -> List.iter check_index args
      | Nany | Nint | Nbool | Nstr -> ())
    nodes;
  { nodes; root }

let pp ppf t =
  let rec go path ppf i =
    if List.mem i path then Format.fprintf ppf "µ%d" i
    else
      match node t i with
      | Nany -> Format.pp_print_string ppf "_"
      | Nint -> Format.pp_print_string ppf "int"
      | Nbool -> Format.pp_print_string ppf "bool"
      | Nstr -> Format.pp_print_string ppf "string"
      | Nchan (ms, open_) ->
          let path = i :: path in
          Format.fprintf ppf "{";
          List.iteri
            (fun k (l, args) ->
              if k > 0 then Format.fprintf ppf "; ";
              Format.fprintf ppf "%s:(%a)" l
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                   (go path))
                args)
            ms;
          if open_ then Format.pp_print_string ppf (if ms = [] then ".." else "; ..");
          Format.fprintf ppf "}"
      | Ntuple args ->
          let path = i :: path in
          Format.fprintf ppf "(%a)"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               (go path))
            args
  in
  go [] ppf t.root
