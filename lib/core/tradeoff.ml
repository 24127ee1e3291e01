open Stt_lp

type t = { s_exp : Rat.t; t_exp : Rat.t; d_exp : Rat.t; q_exp : Rat.t }

let make ~s_exp ~t_exp ~d_exp ~q_exp = { s_exp; t_exp; d_exp; q_exp }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd (abs a) (abs b)

let scaled t =
  let dens = [ Rat.den t.s_exp; Rat.den t.t_exp; Rat.den t.d_exp; Rat.den t.q_exp ] in
  let mult = List.fold_left lcm 1 dens in
  let scale v = Rat.mul (Rat.of_int mult) v in
  let nums =
    List.map
      (fun v -> Rat.num (scale v))
      [ t.s_exp; t.t_exp; t.d_exp; t.q_exp ]
  in
  let g = List.fold_left (fun acc n -> gcd acc (abs n)) 0 nums in
  let g = if g = 0 then 1 else g in
  let adjust v = Rat.div (scale v) (Rat.of_int g) in
  {
    s_exp = adjust t.s_exp;
    t_exp = adjust t.t_exp;
    d_exp = adjust t.d_exp;
    q_exp = adjust t.q_exp;
  }

let equal a b =
  Rat.equal a.s_exp b.s_exp && Rat.equal a.t_exp b.t_exp
  && Rat.equal a.d_exp b.d_exp && Rat.equal a.q_exp b.q_exp

let compare a b =
  let c = Rat.compare a.s_exp b.s_exp in
  if c <> 0 then c
  else
    let c = Rat.compare a.t_exp b.t_exp in
    if c <> 0 then c
    else
      let c = Rat.compare a.d_exp b.d_exp in
      if c <> 0 then c else Rat.compare a.q_exp b.q_exp

let pp_pow ppf (base, e) =
  if Rat.equal e Rat.one then Format.pp_print_string ppf base
  else Format.fprintf ppf "%s^%a" base Rat.pp e

let pp ppf t =
  let lhs =
    List.filter (fun (_, e) -> Rat.sign e > 0) [ ("S", t.s_exp); ("T", t.t_exp) ]
  in
  let rhs =
    List.filter
      (fun (_, e) -> Rat.sign e > 0)
      [ ("|D|", t.d_exp); ("|Q|", t.q_exp) ]
  in
  let pp_side ppf = function
    | [] -> Format.pp_print_string ppf "1"
    | side ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "·")
          pp_pow ppf side
  in
  Format.fprintf ppf "%a ≅ %a" pp_side lhs pp_side rhs

let grid ~lo ~hi ~steps =
  List.init (steps + 1) (fun i ->
      let frac = Rat.make i steps in
      Rat.add lo (Rat.mul frac (Rat.sub hi lo)))
