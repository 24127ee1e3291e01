open Stt_lp

type segment = { lo : Rat.t; hi : Rat.t; lo_t : Rat.t; hi_t : Rat.t }

let slope seg =
  let dx = Rat.sub seg.hi seg.lo in
  if Rat.is_zero dx then None
  else Some (Rat.div (Rat.sub seg.hi_t seg.lo_t) dx)

(* refine [f] over [lo, hi] down to exact linear segments; [f] must be
   piecewise linear with finitely many breakpoints (an LP value).  Depth
   is bounded as a safeguard against pathological functions. *)
let rec refine f lo hi f_lo f_hi depth =
  let mid = Rat.div (Rat.add lo hi) (Rat.of_int 2) in
  if depth = 0 || Rat.equal lo hi then [ { lo; hi; lo_t = f_lo; hi_t = f_hi } ]
  else
    let f_mid = f mid in
    let expected = Rat.div (Rat.add f_lo f_hi) (Rat.of_int 2) in
    if Rat.equal f_mid expected then
      [ { lo; hi; lo_t = f_lo; hi_t = f_hi } ]
    else
      refine f lo mid f_lo f_mid (depth - 1)
      @ refine f mid hi f_mid f_hi (depth - 1)

(* merge adjacent collinear segments *)
let coalesce segments =
  let collinear a b =
    match (slope a, slope b) with
    | Some sa, Some sb -> Rat.equal sa sb && Rat.equal a.hi_t b.lo_t
    | _ -> false
  in
  List.fold_left
    (fun acc seg ->
      match acc with
      | prev :: rest when collinear prev seg ->
          { prev with hi = seg.hi; hi_t = seg.hi_t } :: rest
      | _ -> seg :: acc)
    [] segments
  |> List.rev

(* Around a true breakpoint, dyadic bisection leaves slivers whose
   slopes are chords across the kink.  Keep only the wide segments
   (true linear pieces), then recover the exact breakpoints as the
   intersections of consecutive lines. *)
let snap_breakpoints ~lo ~hi segments =
  let width seg = Rat.sub seg.hi seg.lo in
  let min_width =
    Rat.div (Rat.sub hi lo) (Rat.of_int 512)
  in
  let lines =
    (* (point on the line, slope) for each maximal significant run *)
    List.filter_map
      (fun seg ->
        if Rat.compare (width seg) min_width >= 0 then
          match slope seg with
          | Some s -> Some (seg.lo, seg.lo_t, s)
          | None -> None
        else None)
      segments
  in
  (* merge consecutive identical slopes *)
  let lines =
    List.fold_left
      (fun acc ((_, _, s) as line) ->
        match acc with
        | (_, _, s') :: _ when Rat.equal s s' -> acc
        | _ -> line :: acc)
      [] lines
    |> List.rev
  in
  match lines with
  | [] -> segments
  | (x0, y0, s0) :: rest ->
      let eval_line (x, y, s) at = Rat.add y (Rat.mul s (Rat.sub at x)) in
      (* exact crossings of consecutive lines *)
      let rec build prev_line start acc = function
        | [] ->
            let seg =
              {
                lo = start;
                hi;
                lo_t = eval_line prev_line start;
                hi_t = eval_line prev_line hi;
              }
            in
            List.rev (seg :: acc)
        | ((x2, y2, s2) as line) :: more ->
            let x1, y1, s1 = prev_line in
            let ds = Rat.sub s1 s2 in
            if Rat.is_zero ds then build prev_line start acc more
            else
              let bp =
                (* y1 + s1 (t - x1) = y2 + s2 (t - x2) *)
                Rat.div
                  (Rat.sub
                     (Rat.sub y2 (Rat.mul s2 x2))
                     (Rat.sub y1 (Rat.mul s1 x1)))
                  ds
              in
              let bp = Rat.max start (Rat.min hi bp) in
              let seg =
                {
                  lo = start;
                  hi = bp;
                  lo_t = eval_line prev_line start;
                  hi_t = eval_line prev_line bp;
                }
              in
              build line bp (seg :: acc) more
      in
      build (x0, y0, s0) lo [] rest

let curve_of_fn f ~lo ~hi =
  if Rat.compare lo hi > 0 then invalid_arg "Curve: lo > hi";
  coalesce (snap_breakpoints ~lo ~hi (coalesce (refine f lo hi (f lo) (f hi) 12)))

let clamp t = Rat.max Rat.zero t

let rule_logt r ~dc ~ac ~logq logs =
  match Jointflow.logt r ~dc ~ac ~logq ~logs with
  | Some t -> clamp t
  | None -> Rat.zero

let combined rules ~dc ~ac ~logq ~lo ~hi =
  let f logs =
    List.fold_left
      (fun acc r -> Rat.max acc (rule_logt r ~dc ~ac ~logq logs))
      Rat.zero rules
  in
  curve_of_fn f ~lo ~hi

let eval segments x =
  List.find_map
    (fun seg ->
      if Rat.compare seg.lo x <= 0 && Rat.compare x seg.hi <= 0 then
        match slope seg with
        | None -> Some seg.lo_t
        | Some s -> Some (Rat.add seg.lo_t (Rat.mul s (Rat.sub x seg.lo)))
      else None)
    segments

let pp ppf segments =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
    (fun ppf seg ->
      Format.fprintf ppf "[%a, %a]: %a → %a" Rat.pp seg.lo Rat.pp seg.hi
        Rat.pp seg.lo_t Rat.pp seg.hi_t)
    ppf segments
