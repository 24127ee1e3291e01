type atom = { rel : string; vars : int list }

type t = {
  n : int;
  var_names : string array;
  head : Varset.t;
  atoms : atom list;
}

type cqap = { cq : t; access : Varset.t }

let atom_vars a = Varset.of_list a.vars

let create ~var_names ~head atoms =
  let n = Array.length var_names in
  let range = Varset.full n in
  List.iter
    (fun a ->
      if List.length a.vars <> Varset.cardinal (atom_vars a) then
        invalid_arg "Cq.create: repeated variable in atom";
      if not (Varset.subset (atom_vars a) range) then
        invalid_arg "Cq.create: variable out of range")
    atoms;
  let covered =
    List.fold_left (fun acc a -> Varset.union acc (atom_vars a)) Varset.empty
      atoms
  in
  if not (Varset.equal covered range) then
    invalid_arg "Cq.create: variable in no atom";
  if not (Varset.subset head range) then
    invalid_arg "Cq.create: head variable out of range";
  { n; var_names; head; atoms }

let with_access cq access =
  if not (Varset.subset access (Varset.full cq.n)) then
    invalid_arg "Cq.with_access: access variable out of range";
  { cq = { cq with head = Varset.union cq.head access }; access }

let hypergraph t = Hypergraph.create ~n:t.n (List.map atom_vars t.atoms)
let is_hierarchical t =
  let atoms = Array.of_list t.atoms in
  let atom_set v =
    (* the set of atom indices mentioning v *)
    let s = ref Varset.empty in
    Array.iteri
      (fun i a -> if Varset.mem v (atom_vars a) then s := Varset.add i !s)
      atoms;
    !s
  in
  let sets = List.init t.n atom_set in
  List.for_all
    (fun s1 ->
      List.for_all
        (fun s2 ->
          Varset.disjoint s1 s2 || Varset.subset s1 s2 || Varset.subset s2 s1)
        sets)
    sets

let is_acyclic t =
  (* GYO: repeatedly remove ear edges / isolated vertices *)
  let edges = ref (List.map atom_vars t.atoms) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* remove vertices that occur in exactly one edge *)
    let occurrences v = List.length (List.filter (Varset.mem v) !edges) in
    let reduced =
      List.map (fun e -> Varset.filter (fun v -> occurrences v > 1) e) !edges
    in
    if reduced <> !edges then begin
      edges := reduced;
      changed := true
    end;
    (* remove edges contained in another edge (and empty edges) *)
    let rec dedup kept = function
      | [] -> List.rev kept
      | e :: rest ->
          if
            Varset.is_empty e
            || List.exists (fun e' -> Varset.subset e e') (kept @ rest)
          then begin
            changed := true;
            dedup kept rest
          end
          else dedup (e :: kept) rest
    in
    edges := dedup [] !edges
  done;
  List.length !edges <= 1

let pp ppf t =
  let pp_atom ppf a =
    Format.fprintf ppf "%s(%a)" a.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf t.var_names.(v)))
      a.vars
  in
  Format.fprintf ppf "@[<h>φ(%a) ← %a@]"
    (Varset.pp_named t.var_names)
    t.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∧ ")
       pp_atom)
    t.atoms

let pp_cqap ppf { cq; access } =
  let pp_atom ppf a =
    Format.fprintf ppf "%s(%a)" a.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf cq.var_names.(v)))
      a.vars
  in
  Format.fprintf ppf "@[<h>φ(%a | %a) ← %a@]"
    (Varset.pp_named cq.var_names)
    cq.head
    (Varset.pp_named cq.var_names)
    access
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∧ ")
       pp_atom)
    cq.atoms

module Library = struct
  let k_path k =
    if k < 1 then invalid_arg "k_path";
    let var_names = Array.init (k + 1) (fun i -> Printf.sprintf "x%d" (i + 1)) in
    let atoms = List.init k (fun i -> { rel = "R"; vars = [ i; i + 1 ] }) in
    let endpoints = Varset.of_list [ 0; k ] in
    let cq = create ~var_names ~head:endpoints atoms in
    with_access cq endpoints

  let k_set_disj_generic k ~with_y =
    if k < 1 then invalid_arg "k_set_disjointness";
    let var_names =
      Array.init (k + 1) (fun i ->
          if i = k then "y" else Printf.sprintf "x%d" (i + 1))
    in
    let atoms = List.init k (fun i -> { rel = "R"; vars = [ k; i ] }) in
    let access = Varset.full k in
    let head = if with_y then Varset.add k access else Varset.empty in
    let cq = create ~var_names ~head atoms in
    with_access cq access

  let k_set_disjointness k = k_set_disj_generic k ~with_y:false
  let k_set_intersection k = k_set_disj_generic k ~with_y:true

  let triangle_detect =
    let var_names = [| "x1"; "x2"; "x3" |] in
    let atoms =
      [ { rel = "R"; vars = [ 0; 1 ] };
        { rel = "R"; vars = [ 1; 2 ] };
        { rel = "R"; vars = [ 2; 0 ] } ]
    in
    let cq = create ~var_names ~head:(Varset.of_list [ 0; 2 ]) atoms in
    with_access cq Varset.empty

  let edge_triangle =
    let var_names = [| "x1"; "x2"; "x3" |] in
    let atoms =
      [ { rel = "R"; vars = [ 0; 1 ] };
        { rel = "R"; vars = [ 1; 2 ] };
        { rel = "R"; vars = [ 2; 0 ] } ]
    in
    let cq = create ~var_names ~head:Varset.empty atoms in
    with_access cq (Varset.of_list [ 0; 1 ])

  let square =
    let var_names = [| "x1"; "x2"; "x3"; "x4" |] in
    let atoms =
      [ { rel = "R"; vars = [ 0; 1 ] };
        { rel = "R"; vars = [ 1; 2 ] };
        { rel = "R"; vars = [ 2; 3 ] };
        { rel = "R"; vars = [ 3; 0 ] } ]
    in
    let corners = Varset.of_list [ 0; 2 ] in
    let cq = create ~var_names ~head:corners atoms in
    with_access cq corners

  let hierarchical_binary =
    let var_names = [| "X"; "Y1"; "Y2"; "Z1"; "Z2"; "Z3"; "Z4" |] in
    let atoms =
      [ { rel = "R"; vars = [ 0; 1; 3 ] };
        { rel = "S"; vars = [ 0; 1; 4 ] };
        { rel = "T"; vars = [ 0; 2; 5 ] };
        { rel = "U"; vars = [ 0; 2; 6 ] } ]
    in
    let leaves = Varset.of_list [ 3; 4; 5; 6 ] in
    let cq = create ~var_names ~head:leaves atoms in
    with_access cq leaves
end
