type var = int

type row = {
  coeffs : (Rat.t * var) list;
  rhs : Rat.t;
  mutable enabled : bool;
}
(* rows are stored in [<=] orientation *)

type cstr_kind =
  | Le_row of int            (* index of the stored row *)
  | Ge_row of int            (* stored negated; dual reported negated *)
  | Eq_rows of int * int     (* (<= row, >= row as negated <=) *)

type cstr = int

type model = {
  mutable names : string array;
  name_index : (string, var) Hashtbl.t;
  mutable rows : row list;       (* reversed *)
  mutable nrows : int;
  mutable cstrs : cstr_kind list; (* reversed *)
  mutable ncstrs : int;
}

type linexpr = (Rat.t * var) list

type solution = {
  value : Rat.t;
  primal : var -> Rat.t;
  dual : cstr -> Rat.t;
}

type outcome = Solution of solution | Infeasible | Unbounded

type fsolution = {
  fvalue : float;
  fprimal : var -> float;
  fdual : cstr -> float;
}

let create () =
  { names = [||];
    name_index = Hashtbl.create 64;
    rows = [];
    nrows = 0;
    cstrs = [];
    ncstrs = 0 }

let var m name =
  match Hashtbl.find_opt m.name_index name with
  | Some v -> v
  | None ->
      let v = Array.length m.names in
      m.names <- Array.append m.names [| name |];
      Hashtbl.add m.name_index name v;
      v

let num_vars m = Array.length m.names
let num_constraints m = m.ncstrs

let num_enabled_rows m =
  List.fold_left (fun acc r -> if r.enabled then acc + 1 else acc) 0 m.rows

let push_row m coeffs rhs =
  let i = m.nrows in
  m.rows <- { coeffs; rhs; enabled = true } :: m.rows;
  m.nrows <- m.nrows + 1;
  i

let push_cstr m kind =
  let c = m.ncstrs in
  m.cstrs <- kind :: m.cstrs;
  m.ncstrs <- m.ncstrs + 1;
  c

let neg_expr expr = List.map (fun (q, v) -> (Rat.neg q, v)) expr

let add_le m ?name:_ expr rhs = push_cstr m (Le_row (push_row m expr rhs))

let add_ge m ?name:_ expr rhs =
  push_cstr m (Ge_row (push_row m (neg_expr expr) (Rat.neg rhs)))

let add_eq m ?name:_ expr rhs =
  let r1 = push_row m expr rhs in
  let r2 = push_row m (neg_expr expr) (Rat.neg rhs) in
  push_cstr m (Eq_rows (r1, r2))

let rows_array m = Array.of_list (List.rev m.rows)
let cstrs_array m = Array.of_list (List.rev m.cstrs)

let row_indices_of = function
  | Le_row r | Ge_row r -> [ r ]
  | Eq_rows (r1, r2) -> [ r1; r2 ]

let set_enabled m c flag =
  let rows = rows_array m in
  List.iter (fun r -> rows.(r).enabled <- flag) (row_indices_of (cstrs_array m).(c))

let is_enabled m c =
  let rows = rows_array m in
  List.for_all (fun r -> rows.(r).enabled) (row_indices_of (cstrs_array m).(c))

(* build dense matrices from the enabled rows; returns the matrices and
   the map from original row index to matrix row (-1 when disabled) *)
let build_matrices m =
  let rows = rows_array m in
  let n = Array.length m.names in
  let enabled_idx = Array.make (Array.length rows) (-1) in
  let count = ref 0 in
  Array.iteri
    (fun i r ->
      if r.enabled then begin
        enabled_idx.(i) <- !count;
        incr count
      end)
    rows;
  let a = Array.make_matrix !count n Rat.zero in
  let b = Array.make !count Rat.zero in
  Array.iteri
    (fun i r ->
      let k = enabled_idx.(i) in
      if k >= 0 then begin
        b.(k) <- r.rhs;
        List.iter (fun (q, v) -> a.(k).(v) <- Rat.add a.(k).(v) q) r.coeffs
      end)
    rows;
  (a, b, enabled_idx)

let objective_vector m objective ~maximize =
  let n = Array.length m.names in
  let c = Array.make n Rat.zero in
  List.iter
    (fun (q, v) ->
      let q = if maximize then q else Rat.neg q in
      c.(v) <- Rat.add c.(v) q)
    objective;
  c

let solve_dir ~maximize m objective =
  let a, b, enabled_idx = build_matrices m in
  let c = objective_vector m objective ~maximize in
  match Simplex.solve ~c ~a ~b with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Optimal { value; primal; dual } ->
      let cstrs = cstrs_array m in
      (* Orientation: minimization is solved as max of the negation, so
         its duals come back negated too. *)
      let fix q = if maximize then q else Rat.neg q in
      let row_dual r =
        let k = enabled_idx.(r) in
        if k < 0 then Rat.zero else dual.(k)
      in
      let dual_of c =
        match cstrs.(c) with
        | Le_row r -> fix (row_dual r)
        | Ge_row r -> fix (Rat.neg (row_dual r))
        | Eq_rows (r1, r2) -> fix (Rat.sub (row_dual r1) (row_dual r2))
      in
      Solution
        { value = (if maximize then value else Rat.neg value);
          primal = (fun v -> primal.(v));
          dual = dual_of }

let maximize m objective = solve_dir ~maximize:true m objective
let minimize m objective = solve_dir ~maximize:false m objective

let maximize_float m objective =
  let a, b, _ = build_matrices m in
  let fa = Array.map (Array.map Rat.to_float) a in
  (* tiny deterministic perturbation breaks the massive degeneracy of
     polymatroid systems (almost all right-hand sides are 0), keeping
     the pivot count low; harmless for a presolver *)
  let fb =
    Array.mapi
      (fun i bi -> Rat.to_float bi +. (1e-7 *. float_of_int (i + 1)))
      b
  in
  let fc = Array.map Rat.to_float (objective_vector m objective ~maximize:true) in
  match Fsimplex.solve ~c:fc ~a:fa ~b:fb with
  | Fsimplex.Optimal { value; primal; dual } ->
      let _, _, enabled_idx = (fa, fb, ()) in
      ignore enabled_idx;
      let _, _, idx = build_matrices m in
      let cstrs = cstrs_array m in
      let row_dual r =
        let k = idx.(r) in
        if k < 0 then 0.0 else dual.(k)
      in
      let fdual c =
        match cstrs.(c) with
        | Le_row r -> row_dual r
        | Ge_row r -> -.row_dual r
        | Eq_rows (r1, r2) -> row_dual r1 -. row_dual r2
      in
      Some { fvalue = value; fprimal = (fun v -> primal.(v)); fdual }
  | Fsimplex.Infeasible | Fsimplex.Unbounded -> None
