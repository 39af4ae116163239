(* Order statistics over latency samples. *)

(* Nearest-rank percentile of an ascending array; [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0
let sum xs = List.fold_left ( +. ) 0.0 xs
