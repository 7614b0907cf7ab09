(* Compare two sets of benchmark result files and give a verdict per
   (end-to-end metric, workload):

     compare.exe [--bounds BENCHMARK.json] BASE.json ... --vs CHANGE.json ...

   Runs are pooled per workload in the order given; the i-th base run
   and the i-th change run of a workload form pair i, so collect the two
   sides alternately.  For each pairing, with bound b from
   BENCHMARK.json:

   - regressed   the change's median is worse than the base's by more
                 than b (as a share of the base median);
   - improved    at least 10 pairs, the change wins at least 9 in 10 of
                 them (ties count for neither side), and the medians
                 differ by more than the base's interquartile range;
   - unresolved  either side's interquartile range is wider than b of
                 its median, unless every change run beats every base
                 run;
   - unchanged   otherwise.

   Failed operations are compared absolutely: any increase in
   failed / attempted is a regression.  Exits 1 when anything
   regressed. *)

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the default 'exclusive' method). *)
let quartiles values =
  let d = Array.of_list (List.sort Float.compare values) in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* The untraced runs of some result files; traced runs carry the
   per-layer metrics instead. *)
let runs_of files =
  List.concat_map (fun f -> Json.to_list (Json.get "runs" (Json.read_file f))) files
  |> List.filter (fun r -> Json.get "trace" r = Json.Bool false)

let workload r = Json.to_str (Json.get "workload" r)

let value metric r =
  Json.to_num (Json.get "value" (Json.get metric (Json.get "metrics" r)))

let error_rate runs =
  let sum k = List.fold_left (fun a r -> a +. Json.to_num (Json.get k r)) 0. runs in
  let attempted = sum "attempted" in
  if attempted = 0. then 0. else sum "failed" /. attempted

let () =
  let bounds = ref "BENCHMARK.json" and base = ref [] and change = ref [] in
  let target = ref base in
  let specs =
    [ ("--bounds", Arg.Set_string bounds, "FILE the benchmark definition (default BENCHMARK.json)");
      ("--vs", Arg.Unit (fun () -> target := change), " the files after it are the change's") ]
  in
  Arg.parse specs (fun f -> !target := !(!target) @ [ f ])
    "compare.exe [--bounds BENCHMARK.json] BASE.json ... --vs CHANGE.json ...";
  if !base = [] || !change = [] then begin
    prerr_endline "compare.exe: need base files and, after --vs, change files";
    exit 2
  end;
  let spec = Json.read_file !bounds in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.get "name" m),
          Json.to_str (Json.get "unit" m),
          Json.to_str (Json.get "better" m) = "lower",
          Json.to_num (Json.get "bound" m) ))
      (Json.to_list (Json.get "end_to_end" spec))
  in
  let base_runs = runs_of !base and change_runs = runs_of !change in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem (workload r) acc then acc else acc @ [ workload r ])
      [] base_runs
  in
  let counts = Hashtbl.create 4 in
  let tally v = Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)) in
  Printf.printf "%-15s %-13s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "change median [q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun wl ->
      let b_runs = List.filter (fun r -> workload r = wl) base_runs in
      let c_runs = List.filter (fun r -> workload r = wl) change_runs in
      let pairs = min (List.length b_runs) (List.length c_runs) in
      List.iter
        (fun (name, unit_, lower, bound) ->
          let bv = List.map (value name) b_runs and cv = List.map (value name) c_runs in
          let bq1, bmed, bq3 = quartiles bv and cq1, cmed, cq3 = quartiles cv in
          let better x y = if lower then x < y else x > y in
          let wins = ref 0 in
          for i = 0 to pairs - 1 do
            if better (List.nth cv i) (List.nth bv i) then incr wins
          done;
          let wins = !wins in
          (* positive = the change is worse *)
          let worse = (if lower then cmed -. bmed else bmed -. cmed) /. bmed in
          let spread = Float.max ((bq3 -. bq1) /. bmed) ((cq3 -. cq1) /. cmed) in
          let all_better = List.for_all (fun c -> List.for_all (fun b -> better c b) bv) cv in
          let verdict =
            if cv = [] then "unresolved"
            else if worse > bound then "regressed"
            else if
              pairs >= 10 && wins * 10 >= 9 * pairs && worse < 0.
              && Float.abs (cmed -. bmed) > bq3 -. bq1
            then "improved"
            else if spread > bound && not all_better then "unresolved"
            else "unchanged"
          in
          tally verdict;
          Printf.printf "%-15s %-13s %-34s %-34s %+7.2f%% %3d/%-2d  %s (bound %.0f%%, %s)\n" wl name
            (Printf.sprintf "%.5g [%.5g, %.5g] %s" bmed bq1 bq3 unit_)
            (Printf.sprintf "%.5g [%.5g, %.5g] %s" cmed cq1 cq3 unit_)
            (100. *. (cmed -. bmed) /. bmed)
            wins pairs verdict (100. *. bound)
            (if lower then "lower is better" else "higher is better"))
        metrics;
      let be = error_rate b_runs and ce = error_rate c_runs in
      let verdict = if ce > be then "regressed" else if ce < be then "improved" else "unchanged" in
      tally verdict;
      Printf.printf "%-15s %-13s %-34.6g %-34.6g %8s %6s  %s (absolute)\n" wl "error_rate" be ce "" ""
        verdict)
    workloads;
  let count v = Option.value ~default:0 (Hashtbl.find_opt counts v) in
  Printf.printf "summary: %d unchanged, %d improved, %d regressed, %d unresolved\n"
    (count "unchanged") (count "improved") (count "regressed") (count "unresolved");
  if count "regressed" > 0 then exit 1
