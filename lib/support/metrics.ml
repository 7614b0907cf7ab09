(* Exposition of a finished run's Stats registry.  The engines count in
   Stats alone; this module only renders what they counted. *)

type t = Stats.t

let value = Stats.counter_value

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch
      | _ -> '_')
    name

let to_prom t =
  let b = Buffer.create 1024 in
  List.iter
    (fun c ->
      let n = sanitize (Stats.Counter.name c) in
      Buffer.add_string b (Printf.sprintf "# TYPE tyco_%s counter\n" n);
      Buffer.add_string b
        (Printf.sprintf "tyco_%s %d\n" n (Stats.Counter.value c)))
    (Stats.counters t);
  List.iter
    (fun d ->
      let n = sanitize (Stats.Dist.name d) in
      Buffer.add_string b (Printf.sprintf "# TYPE tyco_%s summary\n" n);
      match Stats.Dist.summary_opt d with
      | None -> Buffer.add_string b (Printf.sprintf "tyco_%s_count 0\n" n)
      | Some s ->
          let q p v =
            Buffer.add_string b
              (Printf.sprintf "tyco_%s{quantile=\"%s\"} %.6g\n" n p v)
          in
          q "0.5" s.Stats.Dist.s_p50;
          q "0.95" s.Stats.Dist.s_p95;
          q "0.99" s.Stats.Dist.s_p99;
          q "0.999" s.Stats.Dist.s_p999;
          Buffer.add_string b
            (Printf.sprintf "tyco_%s_sum %.6g\n" n
               (s.Stats.Dist.s_mean *. float_of_int s.Stats.Dist.s_n));
          Buffer.add_string b
            (Printf.sprintf "tyco_%s_count %d\n" n s.Stats.Dist.s_n))
    (Stats.dists t);
  Buffer.contents b

(* [extra] key/value pairs — values already JSON-encoded — lead the
   object, so a stream can tag its lines without re-parsing. *)
let to_json ?(extra = []) t =
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) extra
    @ List.map
        (fun c ->
          Printf.sprintf "\"%s\":%d" (Stats.Counter.name c)
            (Stats.Counter.value c))
        (Stats.counters t)
    @ List.map
        (fun d ->
          match Stats.Dist.summary_opt d with
          | None -> Printf.sprintf "\"%s\":null" (Stats.Dist.name d)
          | Some s ->
              Printf.sprintf
                "\"%s\":{\"n\":%d,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,\
                 \"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g,\"p999\":%.6g}"
                (Stats.Dist.name d) s.Stats.Dist.s_n s.Stats.Dist.s_mean
                s.Stats.Dist.s_min s.Stats.Dist.s_max s.Stats.Dist.s_p50
                s.Stats.Dist.s_p95 s.Stats.Dist.s_p99 s.Stats.Dist.s_p999)
        (Stats.dists t)
  in
  "{" ^ String.concat "," fields ^ "}"
