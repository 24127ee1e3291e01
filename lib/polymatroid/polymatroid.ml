open Stt_hypergraph
open Stt_lp

type h = {
  n : int;
  vars : Lp.var array; (* indexed by bitmask; 0 unused *)
  lazy_cuts : bool;
  added : (int * int * int, Lp.cstr) Hashtbl.t; (* (i, j, Z) submod cuts *)
  model : Lp.model;
}

let var h s =
  if Varset.is_empty s then invalid_arg "Polymatroid.var: empty set";
  h.vars.(Varset.to_int s)

let expr h (v : Cvec.t) =
  List.concat_map
    (fun ((x, y), c) ->
      let ty = [ (c, var h y) ] in
      if Varset.is_empty x then ty else (Rat.neg c, var h x) :: ty)
    (Cvec.to_list v)

let submod_terms h ~i ~j ~z =
  let bi = Varset.singleton i and bj = Varset.singleton j in
  let zi = Varset.union z bi
  and zj = Varset.union z bj
  and zij = Varset.union (Varset.union z bi) bj in
  let terms =
    [ (Rat.one, var h zi); (Rat.one, var h zj); (Rat.minus_one, var h zij) ]
  in
  if Varset.is_empty z then terms else (Rat.minus_one, var h z) :: terms

let add_submod_row model h ~i ~j ~z =
  let c = Lp.add_ge model (submod_terms h ~i ~j ~z) Rat.zero in
  Hashtbl.replace h.added (i, j, Varset.to_int z) c

let add ?(lazy_cuts = false) model ~name ~n =
  let vars =
    Array.init (1 lsl n) (fun mask ->
        Lp.var model (Printf.sprintf "%s_%d" name mask))
  in
  let h = { n; vars; lazy_cuts; added = Hashtbl.create 64; model } in
  let full = Varset.full n in
  (* elemental monotonicity: h([n]) >= h([n] - i) *)
  Varset.iter
    (fun i ->
      let smaller = Varset.remove i full in
      if not (Varset.is_empty smaller) then
        ignore
          (Lp.add_ge model
             [ (Rat.one, var h full); (Rat.minus_one, var h smaller) ]
             Rat.zero))
    full;
  (* elemental submodularity — eager for small n; with lazy cuts, seed
     only the rows with empty conditioning set (pairwise subadditivity),
     the rest are generated on demand *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      List.iter
        (fun z ->
          if
            (not (Varset.mem i z))
            && (not (Varset.mem j z))
            && ((not lazy_cuts) || Varset.is_empty z)
          then add_submod_row model h ~i ~j ~z)
        (Varset.subsets full)
    done
  done;
  h

let value_of h (primal : Lp.var -> Rat.t) s =
  if Varset.is_empty s then Rat.zero else primal (var h s)

(* add the elemental submodularity constraints violated by the current
   primal; returns how many were added *)
(* iterate all elemental (i, j, Z) triples; [f] decides violation from
   the values of the four corner sets and returns true when a cut was
   added/enabled *)
let fold_elemental h f =
  let count = ref 0 in
  let full = Varset.full h.n in
  for i = 0 to h.n - 1 do
    for j = i + 1 to h.n - 1 do
      List.iter
        (fun z ->
          if (not (Varset.mem i z)) && not (Varset.mem j z) then
            if f i j z then incr count)
        (Varset.subsets full)
    done
  done;
  !count

(* add the elemental submodularity rows violated by a primal point;
   returns the number added (0 when the point is a polymatroid or cuts
   are eager) *)
let add_violated_cuts model h primal =
  if not h.lazy_cuts then 0
  else
    fold_elemental h (fun i j z ->
        let bi = Varset.singleton i and bj = Varset.singleton j in
        let v s = value_of h primal s in
        let gap =
          Rat.sub
            (Rat.add (v (Varset.union (Varset.union z bi) bj)) (v z))
            (Rat.add (v (Varset.union z bi)) (v (Varset.union z bj)))
        in
        if Rat.sign gap <= 0 then false
        else
          match Hashtbl.find_opt h.added (i, j, Varset.to_int z) with
          | Some c when Lp.is_enabled model c ->
              false (* enabled yet violated: numerical impossibility *)
          | Some c ->
              Lp.set_enabled model c true;
              true
          | None ->
              add_submod_row model h ~i ~j ~z;
              true)

let fvalue_of h (fprimal : Lp.var -> float) s =
  if Varset.is_empty s then 0.0 else fprimal (var h s)

let add_violated_cuts_float model h fprimal =
  if not h.lazy_cuts then 0
  else
    fold_elemental h (fun i j z ->
        let bi = Varset.singleton i and bj = Varset.singleton j in
        let v s = fvalue_of h fprimal s in
        let gap =
          v (Varset.union (Varset.union z bi) bj)
          +. v z
          -. v (Varset.union z bi)
          -. v (Varset.union z bj)
        in
        if gap <= 1e-3 then false
        else
          match Hashtbl.find_opt h.added (i, j, Varset.to_int z) with
          | Some c when Lp.is_enabled model c -> false
          | Some c ->
              Lp.set_enabled model c true;
              true
          | None ->
              add_submod_row model h ~i ~j ~z;
              true)

(* after the float presolve, keep only the cuts carrying dual mass at
   the (perturbed, hence essentially non-degenerate) optimum: the exact
   solver then works on a small system, re-enabling anything it still
   needs *)
let disable_slack_cuts model h fdual =
  Hashtbl.iter
    (fun _ c ->
      if Lp.is_enabled model c && abs_float (fdual c) <= 1e-9 then
        Lp.set_enabled model c false)
    h.added

(* a cap larger than any meaningful log-size keeps lazily-cut LPs bounded;
   hitting it is reported as unbounded *)
let cap = Rat.of_int 1_000_000

(* resolve until the optimum satisfies every generated cut *)
let debug = match Sys.getenv_opt "STT_LP_DEBUG" with Some _ -> true | None -> false

(* Soundness note: the dual of any relaxation is a valid dual of the
   full program (omitted rows extend with multiplier 0), and the relaxed
   maximum upper-bounds the true one — so every certificate returned
   here yields a *valid* Shannon-flow inequality / tradeoff.  Iterating
   only tightens the value.  We therefore stop early once the objective
   value stabilizes across consecutive rounds, or after a time budget —
   in both cases the result is a certified (and in practice tight)
   bound. *)
let solve_cuts model hs objective =
  let start = Stt_obs.Mono.now_s () in
  let time_budget = 30.0 in
  (* Phase 1 — float presolve: discover the cut set cheaply, then keep
     only the cuts binding at the (approximate) optimum *)
  let lazy_mode = List.exists (fun h -> h.lazy_cuts) hs in
  if lazy_mode then begin
    let rec float_loop i =
      if i > 200 || Stt_obs.Mono.now_s () -. start > time_budget then ()
      else
        match Lp.maximize_float model objective with
        | None -> ()
        | Some fsol ->
            let added =
              List.fold_left
                (fun acc h ->
                  acc + add_violated_cuts_float model h fsol.Lp.fprimal)
                0 hs
            in
            if debug then
              Printf.eprintf "  [fcuts] iter %d: added=%d value=%g\n%!" i
                added fsol.Lp.fvalue;
            if added > 0 then float_loop (i + 1)
    in
    float_loop 0;
    match Lp.maximize_float model objective with
    | Some fsol ->
        List.iter (fun h -> disable_slack_cuts model h fsol.Lp.fdual) hs;
        if debug then
          Printf.eprintf "  [fcuts] working set: %d rows\n%!"
            (Lp.num_enabled_rows model)
    | None -> ()
  end;
  (* Phase 2 — exact loop over the working set *)
  let rec loop i prev_value prev_outcome =
    let t0 = if debug then Stt_obs.Mono.now_s () else 0.0 in
    match
      (* on rational overflow deep in a pivot, fall back to the previous
         round's outcome — a valid (if looser) certificate *)
      try Lp.maximize model objective
      with Rat.Overflow -> (
        match prev_outcome with Some out -> out | None -> raise Rat.Overflow)
    with
    | (Lp.Infeasible | Lp.Unbounded) as out -> out
    | Lp.Solution sol as out ->
        let stabilized =
          (* never conclude from a cap-valued (still unbounded) round *)
          Rat.compare sol.Lp.value cap < 0
          &&
          match prev_value with
          | Some (v1, _) -> Rat.equal v1 sol.Lp.value
          | None -> false
        in
        if stabilized || Stt_obs.Mono.now_s () -. start > time_budget then out
        else begin
          let added =
            List.fold_left
              (fun acc h -> acc + add_violated_cuts model h sol.Lp.primal)
              0 hs
          in
          if debug then
            Printf.eprintf
              "  [cuts] iter %d: %.2fs rows=%d added=%d value=%s\n%!" i
              (Stt_obs.Mono.now_s () -. t0)
              (Lp.num_constraints model) added
              (Rat.to_string sol.Lp.value);
          if added = 0 then out
          else
            loop (i + 1)
              (Some
                 ( sol.Lp.value,
                   match prev_value with
                   | Some (v1, _) -> v1
                   | None -> cap ))
              (Some out)
        end
  in
  loop 0 None None

let constrain_degree model h (c : Degree.t) ~logd ~logq =
  let bound = Degree.logsize_eval ~logd ~logq c.Degree.bound in
  let terms = expr h (Cvec.term Rat.one ~x:c.Degree.x ~y:c.Degree.y) in
  Lp.add_le model terms bound

let log_size_bound ~n ~dc ~targets ~logd ~logq =
  match targets with
  | [] -> invalid_arg "log_size_bound: no targets"
  | _ ->
      let model = Lp.create () in
      let h = add ~lazy_cuts:(n >= 6) model ~name:"h" ~n in
      List.iter (fun c -> ignore (constrain_degree model h c ~logd ~logq)) dc;
      let w = Lp.var model "w" in
      ignore (Lp.add_le model [ (Rat.one, w) ] cap);
      List.iter
        (fun b ->
          if Varset.is_empty b then invalid_arg "log_size_bound: empty target"
          else
            ignore
              (Lp.add_le model [ (Rat.one, w); (Rat.minus_one, var h b) ]
                 Rat.zero))
        targets;
      (match solve_cuts model [ h ] [ (Rat.one, w) ] with
      | Lp.Solution s when Rat.compare s.Lp.value cap < 0 -> Some s.Lp.value
      | Lp.Solution _ -> None
      | Lp.Unbounded -> None
      | Lp.Infeasible -> None)
