let comma_list pp_elt = Fmt.list ~sep:(Fmt.any ",@ ") pp_elt

let to_string pp v = Fmt.str "%a" pp v
