let reduction_factor ~pc ~pd =
  if pc < 0. || pd < 0. || pc +. pd > 1. +. 1e-9 then
    invalid_arg (Printf.sprintf "Samplesize: invalid bounds pc=%g pd=%g" pc pd);
  let raw =
    if pc = 0. && pd = 0. then 1.
    else if pc = 0. then 1. -. pd
    else if pd = 0. then 1. -. pc
    else if pc = pd then 1. -. (4. *. pc *. (1. -. pc))
    else if pc < pd then 1. -. (4. *. pc *. (1. -. pd))
    else
      1.
      -. Float.min
           (4. *. pc *. (1. -. pc))
           (4. *. ((pc *. (1. -. pd)) +. (pd -. pc)))
  in
  Float.max 0. (Float.min 1. raw)

let reduced ~s ~pc ~pd =
  if s < 0 then invalid_arg "Samplesize.reduced: negative s";
  (* Near [max_int], [float_of_int s] rounds up to [2^62], where
     [int_of_float] wraps to [min_int]: clamp to [s] before converting. *)
  let r = Float.floor (float_of_int s *. reduction_factor ~pc ~pd) in
  if r >= float_of_int s then s else int_of_float r
