(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Figures 1-5, Examples 6.2/6.3) plus empirical
   space-time sweeps that validate the tradeoff *shapes* on synthetic
   workloads, and Bechamel wall-clock microbenchmarks.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- tab1 fig3a emp-setdisj
   List experiments:      dune exec bench/main.exe -- --list *)

open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_relation
open Stt_lp
open Stt_workload
open Stt_yannakakis
open Stt_obs

let rule_header () = print_endline (String.make 72 '-')

let section id title =
  Printf.printf "\n";
  rule_header ();
  Printf.printf "[%s] %s\n" id title;
  rule_header ()

(* ------------------------------------------------------------------ *)
(* machine-readable artifacts                                           *)
(*                                                                      *)
(* Every experiment records its numbers into a flat key → JSON map as   *)
(* it prints them; the driver writes BENCH_<id>.json (schema            *)
(* "stt-bench/1", see DESIGN.md) with those numbers plus the            *)
(* observability trace of the run — each table gets a                   *)
(* machine-readable twin.                                               *)
(* ------------------------------------------------------------------ *)

let artifact_dir = ref "."
let art : (string * Json.t) list ref = ref []
let record k v = art := (k, v) :: !art
let json_rat r = Json.String (Rat.to_string r)

(* Monotonic wall clock, so every op-count snapshot in the artifacts has
   a wall-clock twin and future PRs inherit a perf trajectory. *)
let now_s = Mono.now_s

let timed f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

let json_tradeoff (t : Tradeoff.t) =
  Json.Obj
    [
      ("s_exp", json_rat t.Tradeoff.s_exp);
      ("t_exp", json_rat t.Tradeoff.t_exp);
      ("d_exp", json_rat t.Tradeoff.d_exp);
      ("q_exp", json_rat t.Tradeoff.q_exp);
      ("pretty", Json.String (Format.asprintf "%a" Tradeoff.pp t));
    ]

let json_snapshot (s : Cost.snapshot) =
  Json.Obj
    [
      ("probes", Json.Int s.Cost.probes);
      ("tuples", Json.Int s.Cost.tuples);
      ("scans", Json.Int s.Cost.scans);
      ("total", Json.Int (Cost.total s));
    ]

let json_answering e =
  Json.List
    (List.map
       (fun p -> Json.String (Format.asprintf "%a" Pmtd.pp p))
       (Engine.answering_pmtds e))

let json_logs_curve rows =
  Json.List
    (List.map
       (fun (x, y) ->
         Json.Obj [ ("logs", json_rat x); ("logt", json_rat y) ])
       rows)

(* ------------------------------------------------------------------ *)
(* shared empirical-gate helpers                                        *)
(* ------------------------------------------------------------------ *)

(* The deterministic twin of a wall-clock speedup: ops the slow side
   spends per op of the fast side.  The machine-independent regression
   gate shared by emp-cache, emp-agg and emp-factor. *)
let ops_ratio ~slow ~fast =
  float_of_int slow /. float_of_int (max 1 fast)

(* Flat rows per stored singleton — how many logical tuples one unit of
   space budget holds.  1.0 for flat storage; the emp-factor gate wants
   the factorized engine well above it. *)
let compression_ratio ~rows ~size =
  float_of_int rows /. float_of_int (max 1 size)

(* positionally aligned answer streams must agree relation-for-relation *)
let identical_relations a b = List.for_all2 Relation.equal a b

(* ------------------------------------------------------------------ *)
(* shared symbolic helpers                                              *)
(* ------------------------------------------------------------------ *)

let logq_eps = Rat.make 1 32

let rules_of q ~max_pmtds =
  let pmtds = Enum.pmtds ~max_pmtds q in
  (pmtds, Rule.generate q pmtds)

let combined_logt q rules logs =
  let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
  List.fold_left
    (fun acc r ->
      match Jointflow.logt r ~dc ~ac ~logq:Rat.zero ~logs with
      | Some t -> Rat.max acc (Rat.max Rat.zero t)
      | None -> acc)
    Rat.zero rules

(* prior-art baseline for k-reachability: S·T^{2/(k-1)} ≅ D², capped by
   BFS at T = D *)
let reach_baseline_logt k logs =
  let t = Rat.mul (Rat.make (k - 1) 2) (Rat.sub (Rat.of_int 2) logs) in
  Rat.min Rat.one (Rat.max Rat.zero t)

let pp_logs_curve ~title rows =
  Printf.printf "%-10s" "log_D S";
  List.iter (fun (x, _) -> Printf.printf "%8s" (Rat.to_string x)) rows;
  Printf.printf "\n%-10s" title;
  List.iter (fun (_, y) -> Printf.printf "%8s" (Rat.to_string y)) rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* fig1                                                                 *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "fig1" "Figure 1 — three PMTDs for the 3-reachability CQAP";
  let q = Cq.Library.k_path 3 in
  let of_l = Varset.of_list in
  let td =
    Td.create
      (Rtree.create ~parent:[| -1; 0 |])
      [| of_l [ 0; 2; 3 ]; of_l [ 0; 1; 2 ] |]
  in
  let single = Td.create (Rtree.create ~parent:[| -1 |]) [| Varset.full 4 |] in
  let entries =
    [
      ("left  (M = ∅)", Pmtd.create_exn q td ~materialized:[| false; false |]);
      ( "middle (M = {child})",
        Pmtd.create_exn q td ~materialized:[| false; true |] );
      ("right (M = {root})", Pmtd.create_exn q single ~materialized:[| true |]);
    ]
  in
  List.iter (fun (name, p) -> Format.printf "%-22s %a@." name Pmtd.pp p) entries;
  record "pmtds"
    (Json.List
       (List.map
          (fun (name, p) ->
            Json.Obj
              [
                ("name", Json.String (String.trim name));
                ("pmtd", Json.String (Format.asprintf "%a" Pmtd.pp p));
              ])
          entries));
  print_endline "paper: left = (T134, T123); middle = (T134, S13); right = (S14)"

(* ------------------------------------------------------------------ *)
(* fig2                                                                 *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "fig2" "Figure 2 — all non-redundant, non-dominant PMTDs (3-reach)";
  let pmtds = Enum.pmtds (Cq.Library.k_path 3) in
  Printf.printf "enumerated: %d PMTDs (paper: 5)\n" (List.length pmtds);
  record "pmtd_count" (Json.Int (List.length pmtds));
  record "pmtds"
    (Json.List
       (List.map
          (fun p -> Json.String (Format.asprintf "%a" Pmtd.pp p))
          pmtds));
  List.iter (fun p -> Format.printf "  %a@." Pmtd.pp p) pmtds

(* ------------------------------------------------------------------ *)
(* tab1                                                                 *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  section "tab1" "Table 1 — 2-phase disjunctive rules for 3-reachability";
  let q = Cq.Library.k_path 3 in
  let pmtds, rules = rules_of q ~max_pmtds:64 in
  Printf.printf
    "PMTDs: %d; raw view combinations: %d → subset-minimal rules: %d\n\n"
    (List.length pmtds)
    (List.fold_left (fun acc p -> acc * List.length (Pmtd.views p)) 1 pmtds)
    (List.length rules);
  record "pmtds" (Json.Int (List.length pmtds));
  record "rules" (Json.Int (List.length rules));
  let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
  let grid = Tradeoff.grid ~lo:Rat.zero ~hi:(Rat.of_int 2) ~steps:16 in
  (* LP-derived tradeoff exponents, per rule, with the simplex pivots the
     derivation cost *)
  let rule_rows =
    List.mapi
      (fun i r ->
        let pivots0 = Simplex.pivot_count () in
        let tradeoffs =
          Jointflow.rule_tradeoffs r ~dc ~ac ~logq:logq_eps ~logs_grid:grid
        in
        let pivots = Simplex.pivot_count () - pivots0 in
        Format.printf "ρ%d: %a@." (i + 1) Rule.pp r;
        List.iter (fun t -> Format.printf "      %a@." Tradeoff.pp t) tradeoffs;
        Json.Obj
          [
            ("rule", Json.String (Format.asprintf "%a" Rule.pp r));
            ("tradeoffs", Json.List (List.map json_tradeoff tradeoffs));
            ("simplex_pivots", Json.Int pivots);
          ])
      rules
  in
  record "rule_tradeoffs" (Json.List rule_rows);
  (* empirical twin: build the actual 3-reachability index on a synthetic
     Zipf graph and answer a request batch, so the artifact also carries
     measured (not just derived) numbers *)
  let edges = Graphs.zipf_both ~seed:401 ~vertices:300 ~edges:3_000 ~s:1.1 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let budget = 5_000 in
  let pivots0 = Simplex.pivot_count () in
  let engine, build_wall = timed (fun () -> Engine.build q pmtds ~db ~budget) in
  let build_pivots = Simplex.pivot_count () - pivots0 in
  let rng = Rng.create 7 in
  let q_a =
    Relation.of_list
      (Schema.of_list [ 0; 3 ])
      (List.init 200 (fun _ -> [| Rng.int rng 300; Rng.int rng 300 |]))
  in
  let (result, snap), online_wall =
    timed (fun () -> Cost.measure (fun () -> Engine.answer engine ~q_a))
  in
  Printf.printf
    "\nempirical (|E| = %d, budget %d): stored space %d tuples,\n\
    \  %d answers to %d requests in %d counted ops, %d simplex pivots\n"
    (List.length edges) budget (Engine.space engine)
    (Relation.cardinal result) (Relation.cardinal q_a) (Cost.total snap)
    build_pivots;
  record "empirical"
    (Json.Obj
       [
         ("edges", Json.Int (List.length edges));
         ("budget", Json.Int budget);
         ("simplex_pivots", Json.Int build_pivots);
         ("space", Json.Int (Engine.space engine));
         ( "per_pmtd_space",
           Json.List
             (List.map
                (fun (p, s) ->
                  Json.Obj
                    [
                      ("pmtd", Json.String (Format.asprintf "%a" Pmtd.pp p));
                      ("space", Json.Int s);
                    ])
                (Engine.per_pmtd_space engine)) );
         ("answering_pmtds", json_answering engine);
         ("build_wall_s", Json.Float build_wall);
         ("requests", Json.Int (Relation.cardinal q_a));
         ("answers", Json.Int (Relation.cardinal result));
         ("online_cost", json_snapshot snap);
         ("online_wall_s", Json.Float online_wall);
       ]);
  print_endline "\npaper Table 1:";
  print_endline "  ρ1: S·T² ≅ D²·Q²";
  print_endline "  ρ2: S²·T³ ≅ D⁴·Q³ ; T ≅ D·Q";
  print_endline "  ρ3: S²·T³ ≅ D⁴·Q³ ; T ≅ D·Q";
  print_endline "  ρ4: S·T ≅ D²·Q ; S⁴·T ≅ D⁶·Q ; T ≅ D·Q"

(* ------------------------------------------------------------------ *)
(* fig3a / fig3b                                                        *)
(* ------------------------------------------------------------------ *)

let fig3 ~k ~steps () =
  let id = if k = 3 then "fig3a" else "fig3b" in
  section id
    (Printf.sprintf
       "Figure 3%s — combined %d-reachability tradeoff vs prior art"
       (if k = 3 then "a" else "b")
       k);
  let q = Cq.Library.k_path k in
  let _, rules = rules_of q ~max_pmtds:128 in
  Printf.printf "rules analyzed: %d (|Q_A| = 1)\n\n" (List.length rules);
  let grid = Tradeoff.grid ~lo:Rat.one ~hi:(Rat.of_int 2) ~steps in
  let ours = List.map (fun logs -> (logs, combined_logt q rules logs)) grid in
  let baseline = List.map (fun logs -> (logs, reach_baseline_logt k logs)) grid in
  pp_logs_curve ~title:"baseline" baseline;
  pp_logs_curve ~title:"ours" ours;
  let improved =
    List.for_all2 (fun (_, o) (_, b) -> Rat.compare o b <= 0) ours baseline
  in
  let strictly =
    List.exists2 (fun (_, o) (_, b) -> Rat.compare o b < 0) ours baseline
  in
  record "k" (Json.Int k);
  record "rules" (Json.Int (List.length rules));
  record "baseline" (json_logs_curve baseline);
  record "ours" (json_logs_curve ours);
  record "improved_everywhere" (Json.Bool improved);
  record "strictly_better_somewhere" (Json.Bool strictly);
  Printf.printf
    "\nours ≤ baseline everywhere: %b; strictly better somewhere: %b\n"
    improved strictly;
  if k = 4 then
    print_endline
      "paper: for 4-reachability the new tradeoff beats the conjectured\n\
       optimum S·T^{2/3} ≅ |E|² in *every* regime of space"
  else
    print_endline
      "paper: for 3-reachability the tradeoff improves on S·T ≅ |E|² for\n\
       a significant part of the spectrum"

(* ------------------------------------------------------------------ *)
(* fig4                                                                 *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "fig4" "Figure 4 / Appendix A — Online Yannakakis worked example";
  (* φ(x1 x2 x3 x4 x7 x8 | x1 x2) with the 6-node PMTD of Figure 4:
     T12 ← T13 ← {T345 ← S45; S37 ← S78}; variables x1..x8 ↦ 0..7 *)
  let of_l = Varset.of_list in
  (* seven variables: x1 x2 x3 x4 x5 x7 x8 ↦ ids 0..6 *)
  let var_names = [| "x1"; "x2"; "x3"; "x4"; "x5"; "x7"; "x8" |] in
  let atoms =
    [
      { Cq.rel = "A"; vars = [ 0; 1 ] };
      { Cq.rel = "B"; vars = [ 0; 2 ] };
      { Cq.rel = "C"; vars = [ 2; 3; 4 ] };
      { Cq.rel = "D"; vars = [ 3; 4 ] };
      { Cq.rel = "E"; vars = [ 2; 5 ] };
      { Cq.rel = "F"; vars = [ 5; 6 ] };
    ]
  in
  let head = of_l [ 0; 1; 2; 3; 5; 6 ] in
  let cq = Cq.create ~var_names ~head atoms in
  let cqap = Cq.with_access cq (of_l [ 0; 1 ]) in
  let td =
    Td.create
      (Rtree.create ~parent:[| -1; 0; 1; 2; 1; 4 |])
      [|
        of_l [ 0; 1 ];
        of_l [ 0; 2 ];
        of_l [ 2; 3; 4 ];
        of_l [ 3; 4 ];
        of_l [ 2; 5 ];
        of_l [ 5; 6 ];
      |]
  in
  let pmtd =
    Pmtd.create_exn cqap td
      ~materialized:[| false; false; false; true; true; true |]
  in
  Format.printf "PMTD: %a@." Pmtd.pp pmtd;
  let rng = Rng.create 77 in
  let dom = 30 in
  let db = Db.create () in
  let pairs n = List.init n (fun _ -> [| Rng.int rng dom; Rng.int rng dom |]) in
  let triples n =
    List.init n (fun _ ->
        [| Rng.int rng dom; Rng.int rng dom; Rng.int rng dom |])
  in
  Db.add db "A" (pairs 300);
  Db.add db "B" (pairs 300);
  Db.add db "C" (triples 300);
  Db.add db "D" (pairs 300);
  Db.add db "E" (pairs 300);
  Db.add db "F" (pairs 300);
  let full = Db.eval db (Cq.create ~var_names ~head:(Varset.full 7) atoms) in
  let view node =
    Cost.with_counting false (fun () ->
        Relation.project full (Varset.to_list (Pmtd.view pmtd node).Pmtd.vars))
  in
  let pre = Online_yannakakis.preprocess pmtd ~s_views:view in
  Printf.printf "S-view space: %d tuples\n" (Online_yannakakis.space pre);
  let q_a =
    Relation.of_list
      (Schema.of_list [ 0; 1 ])
      (List.init 20 (fun _ -> [| Rng.int rng dom; Rng.int rng dom |]))
  in
  let (result, snap), online_wall =
    timed (fun () ->
        Cost.measure (fun () -> Online_yannakakis.answer pre ~t_views:view ~q_a))
  in
  let expected = Db.eval_access db cqap ~q_a in
  record "s_view_space" (Json.Int (Online_yannakakis.space pre));
  record "requests" (Json.Int (Relation.cardinal q_a));
  record "answers" (Json.Int (Relation.cardinal result));
  record "online_cost" (json_snapshot snap);
  record "online_wall_s" (Json.Float online_wall);
  record "matches_brute_force"
    (Json.Bool (Relation.equal result expected));
  Printf.printf
    "answered |Q_A| = %d in %d counted ops; |ψ| = %d (matches brute force: %b)\n"
    (Relation.cardinal q_a) (Cost.total snap) (Relation.cardinal result)
    (Relation.equal result expected)

(* ------------------------------------------------------------------ *)
(* fig5                                                                 *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "fig5" "Figure 5 / Appendix F — Boolean hierarchical CQAP";
  let q = Cq.Library.hierarchical_binary in
  Format.printf "query: %a@." Cq.pp_cqap q;
  Printf.printf "hierarchical: %b\n\n" (Cq.is_hierarchical q.Cq.cq);
  let pmtds, rules = rules_of q ~max_pmtds:64 in
  Printf.printf "PMTDs (paper: 5): %d\n" (List.length pmtds);
  List.iter (fun p -> Format.printf "  %a@." Pmtd.pp p) pmtds;
  Printf.printf "\nsubset-minimal rules: %d\n" (List.length rules);
  record "hierarchical" (Json.Bool (Cq.is_hierarchical q.Cq.cq));
  record "pmtds" (Json.Int (List.length pmtds));
  record "rules" (Json.Int (List.length rules));
  let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
  let grid = Tradeoff.grid ~lo:Rat.zero ~hi:(Rat.of_int 2) ~steps:4 in
  List.iter
    (fun r ->
      Format.printf "  %a@." Rule.pp r;
      List.iter
        (fun t -> Format.printf "      %a  (LP certificate)@." Tradeoff.pp t)
        (Jointflow.rule_tradeoffs r ~dc ~ac ~logq:logq_eps ~logs_grid:grid))
    rules;
  print_endline
    "\n(at 7 variables the LP runs with lazily generated polymatroid cuts\n\
    \ and early stopping; its certificates are valid upper bounds but can\n\
    \ be loose — the machine-checked proof sequences below give the tight\n\
    \ tradeoffs of Appendix F)";
  print_endline "\nmachine-checked paper proofs (lib/core/paper_proofs.ml):";
  record "proof_tradeoffs"
    (Json.List
       (List.map
          (fun name ->
            let e = Paper_proofs.find name in
            Format.printf "  %-28s %a@." e.Paper_proofs.name Tradeoff.pp
              e.Paper_proofs.tradeoff;
            Json.Obj
              [
                ("name", Json.String e.Paper_proofs.name);
                ("tradeoff", json_tradeoff e.Paper_proofs.tradeoff);
              ])
          [ "F improved (hierarchical)"; "F rule 2 (hierarchical)" ]));
  print_endline "\npaper:";
  print_endline "  Theorem F.4 baseline (w = 4):    S·T³ ≅ D⁴";
  print_endline "  framework (first derivation):    S·T³ ≅ D⁴·Q³";
  print_endline "  improved (bucketize bound vars): S·T⁴ ≅ D⁴·Q⁴, others S·T ≅ D²·Q"

(* ------------------------------------------------------------------ *)
(* ex62 / ex63                                                          *)
(* ------------------------------------------------------------------ *)

let ex62 () =
  section "ex62" "Example 6.2 — k-Set Disjointness via fractional edge covers";
  record "tradeoffs"
    (Json.List
       (List.map
          (fun k ->
            let q = Cq.Library.k_set_disjointness k in
            let t = Cover.theorem_6_1_auto q in
            Format.printf "k = %d:  %a   (paper: S·T^%d ≅ Q^%d·D^%d)@." k
              Tradeoff.pp (Tradeoff.scaled t) k k k;
            Json.Obj
              [ ("k", Json.Int k); ("tradeoff", json_tradeoff (Tradeoff.scaled t)) ])
          [ 2; 3; 4 ]))

let ex63 () =
  section "ex63" "Example 6.3 — 4-reachability via a tree decomposition";
  let q = Cq.Library.k_path 4 in
  let of_l = Varset.of_list in
  let e i j = of_l [ i; j ] in
  let bags =
    [
      {
        Cover.bag = of_l [ 0; 1; 3; 4 ];
        a_t = of_l [ 0; 4 ];
        u = [ (e 0 1, Rat.one); (e 3 4, Rat.one) ];
      };
      {
        Cover.bag = of_l [ 1; 2; 3 ];
        a_t = of_l [ 1; 3 ];
        u = [ (e 1 2, Rat.one); (e 2 3, Rat.one) ];
      };
    ]
  in
  let t = Cover.path_tradeoff q bags in
  record "tradeoff" (json_tradeoff t);
  Format.printf
    "path {x1,x2,x4,x5} → {x2,x3,x4}:  %a   (paper: S^{3/2}·T ≅ Q·D³)@."
    Tradeoff.pp t

(* ------------------------------------------------------------------ *)
(* empirical sweeps                                                     *)
(* ------------------------------------------------------------------ *)

let slope points =
  let pts =
    List.filter_map
      (fun (x, y) ->
        if x > 0 && y > 0 then
          Some (Float.log (float_of_int x), Float.log (float_of_int y))
        else None)
      points
  in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
      ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

let emp_setdisj () =
  section "emp-setdisj"
    "Empirical — 2-/3-Set Disjointness: worst-case probes vs stored space";
  let memberships =
    Sets.zipf_sizes ~seed:101 ~universe:3000 ~sets:500 ~memberships:25_000
      ~s:1.15
  in
  Printf.printf "N = %d membership pairs\n" (List.length memberships);
  List.iter
    (fun k ->
      Printf.printf "\nk = %d (paper predicts worst T ∝ S^{-1/%d}):\n" k k;
      Printf.printf "%12s %12s %10s %10s\n" "budget" "space" "avg ops"
        "worst ops";
      let rng0 = Rng.create 55 in
      (* Zipf-rank queries: heavier sets are asked about more often, the
         regime where heavy-heavy materialization matters *)
      let sample = Rng.zipf_sampler rng0 ~n:500 ~s:1.1 in
      let queries =
        List.init 400 (fun _ -> Array.init k (fun _ -> sample ()))
      in
      let points = ref [] and rows = ref [] in
      List.iter
        (fun budget ->
          let t, build_wall =
            timed (fun () -> Stt_apps.Setdisj.build ~k ~memberships ~budget)
          in
          let total = ref 0 and worst = ref 0 in
          let (), wall =
            timed (fun () ->
                List.iter
                  (fun qy ->
                    let _, snap =
                      Cost.measure (fun () -> Stt_apps.Setdisj.disjoint t qy)
                    in
                    let c = Cost.total snap in
                    total := !total + c;
                    worst := max !worst c)
                  queries)
          in
          points := (Stt_apps.Setdisj.space t, !worst) :: !points;
          rows :=
            Json.Obj
              [
                ("budget", Json.Int budget);
                ("space", Json.Int (Stt_apps.Setdisj.space t));
                ("avg_ops", Json.Int (!total / List.length queries));
                ("worst_ops", Json.Int !worst);
                ("build_wall_s", Json.Float build_wall);
                ("query_wall_s", Json.Float wall);
              ]
            :: !rows;
          Printf.printf "%12d %12d %10d %10d\n" budget
            (Stt_apps.Setdisj.space t)
            (!total / List.length queries)
            !worst)
        [ 0; 100; 1_000; 10_000; 100_000; 1_000_000 ];
      let informative =
        (* drop saturated endpoints: zero space or O(1) answers *)
        List.filter (fun (s, w) -> s > 0 && w > 2) !points
      in
      Printf.printf
        "measured log-log slope (worst vs space): %+.2f (theory %+.2f)\n"
        (slope informative)
        (-1.0 /. float_of_int k);
      record
        (Printf.sprintf "k%d" k)
        (Json.Obj
           [
             ("rows", Json.List (List.rev !rows));
             ("slope", Json.Float (slope informative));
             ("theory_slope", Json.Float (-1.0 /. float_of_int k));
           ]))
    [ 2; 3 ]

let emp_reach () =
  section "emp-reach"
    "Empirical — k-reachability: framework vs baseline at equal space";
  let vertices = 800 in
  let edges = Graphs.zipf_both ~seed:103 ~vertices ~edges:8_000 ~s:1.1 in
  Printf.printf "|E| = %d\n" (List.length edges);
  let rng0 = Rng.create 66 in
  let queries =
    List.init 300 (fun _ -> (Rng.int rng0 vertices, Rng.int rng0 vertices))
  in
  let rows = ref [] in
  let run ?(extra = []) name space query =
    let total = ref 0 and worst = ref 0 in
    let (), wall =
      timed (fun () ->
          List.iter
            (fun (u, v) ->
              let _, snap = Cost.measure (fun () -> ignore (query u v)) in
              let c = Cost.total snap in
              total := !total + c;
              worst := max !worst c)
            queries)
    in
    Printf.printf "  %-24s space=%8d avg=%7d worst=%8d\n" name space
      (!total / List.length queries)
      !worst;
    rows :=
      Json.Obj
        ([
           ("variant", Json.String name);
           ("space", Json.Int space);
           ("avg_ops", Json.Int (!total / List.length queries));
           ("worst_ops", Json.Int !worst);
           ("query_wall_s", Json.Float wall);
         ]
        @ extra)
      :: !rows;
    (space, !worst)
  in
  List.iter
    (fun k ->
      Printf.printf "\nk = %d:\n" k;
      rows := [];
      let bfs = Stt_apps.Reach.Bfs.build edges in
      ignore (run "BFS (S=0)" 0 (fun u v -> Stt_apps.Reach.Bfs.query bfs ~k u v));
      let fw_points = ref [] in
      List.iter
        (fun budget ->
          let b = Stt_apps.Reach.Baseline.build ~k edges ~budget in
          ignore
            (run
               (Printf.sprintf "baseline @%d" budget)
               (Stt_apps.Reach.Baseline.space b)
               (fun u v -> Stt_apps.Reach.Baseline.query b u v));
          let f = Stt_apps.Reach.Framework.build ~k edges ~budget in
          fw_points :=
            run
              ~extra:
                [
                  ( "answering_pmtds",
                    json_answering (Stt_apps.Reach.Framework.engine f) );
                ]
              (Printf.sprintf "framework @%d" budget)
              (Stt_apps.Reach.Framework.space f)
              (fun u v -> Stt_apps.Reach.Framework.query f u v)
            :: !fw_points)
        [ 2_000; 50_000; 1_000_000 ];
      if k = 2 then
        Printf.printf
          "  framework log-log slope (worst vs space): %+.2f (theory -1/2)\n"
          (slope !fw_points);
      record
        (Printf.sprintf "k%d" k)
        (Json.Obj
           (("rows", Json.List (List.rev !rows))
           ::
           (if k = 2 then
              [
                ("framework_slope", Json.Float (slope !fw_points));
                ("theory_slope", Json.Float (-0.5));
              ]
            else []))))
    [ 2; 3 ]

let emp_hier () =
  section "emp-hier"
    "Empirical — hierarchical CQAP: adapted baseline vs framework";
  let inst = Stt_apps.Hierarchical.generate ~seed:107 ~posts:600 ~size:8_000 in
  let rng0 = Rng.create 99 in
  let zdom = 150 in
  let queries =
    List.init 300 (fun _ -> Array.init 4 (fun _ -> Rng.int rng0 zdom))
  in
  let rows = ref [] in
  let run name space query =
    let total = ref 0 and worst = ref 0 in
    let (), wall =
      timed (fun () ->
          List.iter
            (fun qy ->
              let _, snap = Cost.measure (fun () -> ignore (query qy)) in
              total := !total + Cost.total snap;
              worst := max !worst (Cost.total snap))
            queries)
    in
    Printf.printf "  %-28s space=%8d avg=%6d worst=%7d\n" name space
      (!total / List.length queries)
      !worst;
    rows :=
      Json.Obj
        [
          ("variant", Json.String name);
          ("space", Json.Int space);
          ("avg_ops", Json.Int (!total / List.length queries));
          ("worst_ops", Json.Int !worst);
          ("query_wall_s", Json.Float wall);
        ]
      :: !rows
  in
  List.iter
    (fun eps ->
      let t = Stt_apps.Hierarchical.Adapted.build inst ~epsilon:eps in
      run
        (Printf.sprintf "adapted (ε = %.2f)" eps)
        (Stt_apps.Hierarchical.Adapted.space t)
        (Stt_apps.Hierarchical.Adapted.query t))
    [ 0.0; 0.15; 0.3; 0.45 ];
  List.iter
    (fun budget ->
      let t = Stt_apps.Hierarchical.Framework.build inst ~budget in
      run
        (Printf.sprintf "framework @%d" budget)
        (Stt_apps.Hierarchical.Framework.space t)
        (Stt_apps.Hierarchical.Framework.query t))
    [ 2_000; 200_000 ];
  record "rows" (Json.List (List.rev !rows))

let emp_square () =
  section "emp-square" "Empirical — square query (Example E.5) budget sweep";
  let edges = Graphs.cycle_rich ~seed:109 ~vertices:400 ~edges:4_000 in
  Printf.printf "|E| = %d\n" (List.length edges);
  let rng0 = Rng.create 31 in
  let queries = List.init 200 (fun _ -> (Rng.int rng0 400, Rng.int rng0 400)) in
  Printf.printf "%12s %10s %10s %10s\n" "budget" "space" "avg" "worst";
  record "rows"
    (Json.List
       (List.map
          (fun budget ->
            let t, build_wall =
              timed (fun () -> Stt_apps.Patterns.Square.build edges ~budget)
            in
            let total = ref 0 and worst = ref 0 in
            let (), wall =
              timed (fun () ->
                  List.iter
                    (fun (u, w) ->
                      let _, snap =
                        Cost.measure (fun () ->
                            ignore (Stt_apps.Patterns.Square.query t u w))
                      in
                      total := !total + Cost.total snap;
                      worst := max !worst (Cost.total snap))
                    queries)
            in
            Printf.printf "%12d %10d %10d %10d\n" budget
              (Stt_apps.Patterns.Square.space t)
              (!total / List.length queries)
              !worst;
            Json.Obj
              [
                ("budget", Json.Int budget);
                ("space", Json.Int (Stt_apps.Patterns.Square.space t));
                ("avg_ops", Json.Int (!total / List.length queries));
                ("worst_ops", Json.Int !worst);
                ("build_wall_s", Json.Float build_wall);
                ("query_wall_s", Json.Float wall);
              ])
          [ 10; 1_000; 20_000; 500_000 ]))

(* ------------------------------------------------------------------ *)
(* emp-serve                                                            *)
(* ------------------------------------------------------------------ *)

let chunks k xs =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | xs ->
        let b, rest = take k [] xs in
        b :: go rest
  in
  go xs

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let emp_serve () =
  section "emp-serve"
    "Empirical — serving: parallel build + batched online answering";
  let vertices = 400 in
  let edges = Graphs.zipf_both ~seed:113 ~vertices ~edges:4_000 ~s:1.1 in
  let q = Cq.Library.k_path 2 in
  let budget = 2_000 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  Printf.printf "|E| = %d, budget %d (host cores: %d)\n" (List.length edges)
    budget (Domain.recommended_domain_count ());
  let saved_jobs = Pool.jobs () in
  (* build under 1 and 4 domains: outputs must be identical; both walls
     go into the artifact (speedup only materializes on multicore hosts) *)
  let build jobs =
    Pool.set_jobs jobs;
    timed (fun () -> Engine.build_auto ~max_pmtds:128 q ~db ~budget)
  in
  let e1, build_wall_1 = build 1 in
  let e4, build_wall_4 = build 4 in
  Pool.set_jobs saved_jobs;
  let identical_builds =
    Engine.space e1 = Engine.space e4
    && List.for_all2
         (fun (_, a) (_, b) -> a = b)
         (Engine.per_pmtd_space e1) (Engine.per_pmtd_space e4)
  in
  Printf.printf
    "build: %.4fs @1 domain, %.4fs @4 domains — identical outputs: %b\n"
    build_wall_1 build_wall_4 identical_builds;
  let engine = e4 in
  (* hot-key Zipf request stream over the access schema *)
  let requests = 8_000 in
  let skew = 1.5 in
  let mk_reqs () =
    let rng = Rng.create 117 in
    let sample = Rng.zipf_sampler rng ~n:vertices ~s:skew in
    let acc_schema = Engine.access_schema engine in
    let arity = Schema.arity acc_schema in
    List.init requests (fun _ ->
        Relation.singleton acc_schema (Array.init arity (fun _ -> sample ())))
  in
  let serve batch =
    let reqs = mk_reqs () in
    let walls = ref [] and total_ops = ref 0 and hits = ref 0 in
    let answers = ref [] in
    let (), wall =
      timed (fun () ->
          List.iter
            (fun group ->
              let out, w = timed (fun () -> Engine.answer_batch engine group) in
              walls := w :: !walls;
              List.iter
                (fun (r, c) ->
                  if not (Relation.is_empty r) then incr hits;
                  total_ops := !total_ops + Cost.total c;
                  answers := r :: !answers)
                out)
            (chunks batch reqs))
    in
    let sorted = Array.of_list !walls in
    Array.sort compare sorted;
    let throughput = float_of_int requests /. wall in
    Printf.printf
      "batch=%-4d %9.0f answers/sec  %d hits  avg %3d ops  batch wall p50 \
       %.5fs p95 %.5fs max %.5fs\n"
      batch throughput !hits (!total_ops / requests) (percentile sorted 0.50)
      (percentile sorted 0.95) (percentile sorted 1.0);
    let row =
      Json.Obj
        [
          ("batch", Json.Int batch);
          ("requests", Json.Int requests);
          ("hits", Json.Int !hits);
          ("total_ops", Json.Int !total_ops);
          ("wall_s", Json.Float wall);
          ("answers_per_sec", Json.Float throughput);
          ("batch_wall_p50_s", Json.Float (percentile sorted 0.50));
          ("batch_wall_p95_s", Json.Float (percentile sorted 0.95));
          ("batch_wall_max_s", Json.Float (percentile sorted 1.0));
        ]
    in
    (row, throughput, List.rev !answers)
  in
  let row1, tput1, ans1 = serve 1 in
  let row64, tput64, ans64 = serve 64 in
  let identical_answers = identical_relations ans1 ans64 in
  let speedup = tput64 /. tput1 in
  Printf.printf
    "batched (64) vs per-tuple (1): %.2fx throughput — identical answers: %b\n"
    speedup identical_answers;
  (* snapshot round trip: pay the build once, serve from the file —
     loading must cost a fraction of the cold build and the loaded
     engine must answer identically *)
  let snap_path = Filename.temp_file "stt_emp_serve" ".snap" in
  let snapshot_bytes, save_wall =
    timed (fun () ->
        match Engine.save engine snap_path with
        | Ok bytes -> bytes
        | Error e -> failwith (Stt_store.Store.error_to_string e))
  in
  let loaded, load_wall =
    timed (fun () ->
        match Engine.load snap_path with
        | Ok l -> l
        | Error e -> failwith (Stt_store.Store.error_to_string e))
  in
  Sys.remove snap_path;
  let identical_loaded =
    Engine.space loaded = Engine.space engine
    &&
    let reqs = List.filteri (fun i _ -> i < 256) (mk_reqs ()) in
    List.for_all2
      (fun (r, c) (r', c') -> Relation.equal r r' && c = c')
      (Engine.answer_batch engine reqs)
      (Engine.answer_batch loaded reqs)
  in
  Printf.printf
    "snapshot: %d bytes, saved %.4fs, loaded %.4fs (cold build %.4fs) — \
     identical answers and op counts: %b\n"
    snapshot_bytes save_wall load_wall build_wall_1 identical_loaded;
  record "edges" (Json.Int (List.length edges));
  record "budget" (Json.Int budget);
  record "space" (Json.Int (Engine.space engine));
  record "host_cores" (Json.Int (Domain.recommended_domain_count ()));
  record "build_wall_1_s" (Json.Float build_wall_1);
  record "build_wall_4_s" (Json.Float build_wall_4);
  record "build_speedup" (Json.Float (build_wall_1 /. build_wall_4));
  record "identical_builds" (Json.Bool identical_builds);
  record "skew" (Json.Float skew);
  record "single" row1;
  record "batched" row64;
  record "batched_speedup" (Json.Float speedup);
  record "identical_answers" (Json.Bool identical_answers);
  record "snapshot_bytes" (Json.Int snapshot_bytes);
  record "snapshot_save_wall_s" (Json.Float save_wall);
  record "snapshot_load_wall_s" (Json.Float load_wall);
  record "snapshot_load_speedup" (Json.Float (build_wall_1 /. load_wall));
  record "identical_loaded" (Json.Bool identical_loaded)

(* ------------------------------------------------------------------ *)
(* emp-cache                                                            *)
(* ------------------------------------------------------------------ *)

let emp_cache () =
  section "emp-cache"
    "Empirical — workload-adaptive answer cache across budgets and skews";
  (* 3-reach at a tight space budget keeps the online path expensive, so
     a cache hit (one probe + a decode) has real work to displace *)
  let vertices = 400 in
  let edges = Graphs.zipf_both ~seed:131 ~vertices ~edges:4_000 ~s:1.1 in
  let q = Cq.Library.k_path 3 in
  let budget = 1_000 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let engine, build_wall =
    timed (fun () -> Engine.build_auto ~max_pmtds:128 q ~db ~budget)
  in
  Printf.printf "|E| = %d, budget %d, space %d (built in %.3fs)\n"
    (List.length edges) budget (Engine.space engine) build_wall;
  let requests = 4_000 in
  let batch = 16 in
  let acc_schema = Engine.access_schema engine in
  let arity = Schema.arity acc_schema in
  (* same seed for every run: a budget sweep serves the same stream *)
  let mk_reqs ~skew =
    let rng = Rng.create 117 in
    let sample =
      if skew = 0.0 then fun () -> Rng.int rng vertices
      else Rng.zipf_sampler rng ~n:vertices ~s:skew
    in
    List.init requests (fun _ ->
        Relation.singleton acc_schema (Array.init arity (fun _ -> sample ())))
  in
  let serve ~label ~skew ~cache_budget =
    Engine.attach_cache engine ~budget:cache_budget (* 0 detaches *);
    let reqs = mk_reqs ~skew in
    let walls = ref [] and total_ops = ref 0 in
    let answers = ref [] in
    let (), wall =
      timed (fun () ->
          List.iter
            (fun group ->
              let out, w = timed (fun () -> Engine.answer_batch engine group) in
              walls := w :: !walls;
              List.iter
                (fun (r, c) ->
                  total_ops := !total_ops + Cost.total c;
                  answers := r :: !answers)
                out)
            (chunks batch reqs))
    in
    let sorted = Array.of_list !walls in
    Array.sort compare sorted;
    let throughput = float_of_int requests /. wall in
    let hit_rate, used, entries =
      match Engine.cache_stats engine with
      | None -> (0.0, 0, 0)
      | Some s ->
          let open Stt_cache.Cache in
          let lookups = s.hits + s.misses in
          ( (if lookups = 0 then 0.0
             else float_of_int s.hits /. float_of_int lookups),
            s.used,
            s.entries )
    in
    Printf.printf
      "%-12s cache=%-6d %9.0f answers/sec  avg %4d ops  hit rate %.3f  \
       occupancy %d tuples (%d entries)  batch wall p50 %.5fs p99 %.5fs\n"
      label cache_budget throughput (!total_ops / requests) hit_rate used
      entries (percentile sorted 0.50) (percentile sorted 0.99);
    let row =
      Json.Obj
        [
          ("cache_budget", Json.Int cache_budget);
          ("requests", Json.Int requests);
          ("total_ops", Json.Int !total_ops);
          ("wall_s", Json.Float wall);
          ("answers_per_sec", Json.Float throughput);
          ("batch_wall_p50_s", Json.Float (percentile sorted 0.50));
          ("batch_wall_p99_s", Json.Float (percentile sorted 0.99));
          ("hit_rate", Json.Float hit_rate);
          ("cache_used", Json.Int used);
          ("cache_entries", Json.Int entries);
        ]
    in
    (row, throughput, !total_ops, List.rev !answers)
  in
  let skew = 1.5 in
  let row_z0, t_z0, ops_z0, ans_z0 =
    serve ~label:"zipf" ~skew ~cache_budget:0
  in
  let row_zs, _, _, ans_zs = serve ~label:"zipf" ~skew ~cache_budget:500 in
  let row_zl, t_zl, ops_zl, ans_zl =
    serve ~label:"zipf" ~skew ~cache_budget:20_000
  in
  let row_u0, t_u0, _, ans_u0 =
    serve ~label:"uniform" ~skew:0.0 ~cache_budget:0
  in
  let row_ul, t_ul, _, ans_ul =
    serve ~label:"uniform" ~skew:0.0 ~cache_budget:20_000
  in
  Engine.attach_cache engine ~budget:0;
  let identical_answers =
    identical_relations ans_z0 ans_zs
    && identical_relations ans_z0 ans_zl
    && identical_relations ans_u0 ans_ul
  in
  let skew_speedup = t_zl /. t_z0 in
  (* op counts are machine-independent: the deterministic twin of the
     wall-clock speedup, for noise-free regression gating *)
  let skew_ops_ratio = ops_ratio ~slow:ops_z0 ~fast:ops_zl in
  let uniform_ratio = t_ul /. t_u0 in
  Printf.printf
    "zipf(%.1f): cached (20000) vs uncached: %.2fx throughput, %.2fx fewer \
     ops — identical answers: %b\n"
    skew skew_speedup skew_ops_ratio identical_answers;
  Printf.printf
    "uniform: cached vs uncached: %.2fx throughput (flat is the goal — \
     admission keeps cold traffic from churning the cache)\n"
    uniform_ratio;
  record "edges" (Json.Int (List.length edges));
  record "budget" (Json.Int budget);
  record "space" (Json.Int (Engine.space engine));
  record "build_wall_s" (Json.Float build_wall);
  record "requests" (Json.Int requests);
  record "batch" (Json.Int batch);
  record "zipf_skew" (Json.Float skew);
  record "zipf_uncached" row_z0;
  record "zipf_small" row_zs;
  record "zipf_large" row_zl;
  record "uniform_uncached" row_u0;
  record "uniform_large" row_ul;
  record "identical_answers" (Json.Bool identical_answers);
  record "skew_speedup" (Json.Float skew_speedup);
  record "skew_ops_ratio" (Json.Float skew_ops_ratio);
  record "uniform_ratio" (Json.Float uniform_ratio)

(* ------------------------------------------------------------------ *)
(* emp-churn                                                            *)
(* ------------------------------------------------------------------ *)

let emp_churn () =
  section "emp-churn"
    "Empirical — incremental maintenance vs from-scratch rebuilds under churn";
  (* same fixture as emp-cache: 3-reach over the 4k-edge Zipf graph at a
     tight space budget, so both deltas and rebuilds have real work *)
  let vertices = 400 and n_edges = 4_000 in
  let q = Cq.Library.k_path 3 in
  let budget = 1_000 in
  let seed = 131 in
  let edges = Graphs.zipf_both ~seed ~vertices ~edges:n_edges ~s:1.1 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let engine, build_wall =
    timed (fun () -> Engine.build_auto ~max_pmtds:128 q ~db ~budget)
  in
  let acc_schema = Engine.access_schema engine in
  let arity = Schema.arity acc_schema in
  Printf.printf "|E| = %d, budget %d, space %d (built in %.3fs)\n"
    (List.length edges) budget (Engine.space engine) build_wall;
  (* the shared churn stream: ~30%% inserts / ~15%% deletes / ~55%%
     queries, Zipf-skewed onto the hot keys *)
  let n_ops = 400 in
  let ops =
    Scenario.churn_ops ~seed ~vertices ~edges:n_edges ~ops:n_ops ~arity
  in
  (* live mirror of the edge set, so the cold rebuild at the end sees
     exactly the post-churn graph *)
  let live = Hashtbl.create (2 * n_edges) in
  List.iter (fun e -> Hashtbl.replace live e ()) edges;
  let delta_ops = ref 0 and n_deltas = ref 0 and applied = ref 0 in
  let first_delta_ops = ref 0 in
  let delta_walls = ref [] in
  let query_ops = ref 0 and n_queries = ref 0 in
  let (), churn_wall =
    timed (fun () ->
        List.iter
          (fun op ->
            match op with
            | Scenario.Insert (u, v) | Scenario.Delete (u, v) ->
                let add =
                  match op with Scenario.Insert _ -> true | _ -> false
                in
                let (eff, cost), w =
                  timed (fun () ->
                      if add then Engine.insert engine "R" [| u; v |]
                      else Engine.delete engine "R" [| u; v |])
                in
                if add then Hashtbl.replace live (u, v) ()
                else Hashtbl.remove live (u, v);
                if eff then incr applied;
                incr n_deltas;
                (* the first delta also pays the one-time thaw *)
                if !n_deltas = 1 then first_delta_ops := Cost.total cost;
                delta_ops := !delta_ops + Cost.total cost;
                delta_walls := w :: !delta_walls
            | Scenario.Query t ->
                let q_a = Relation.singleton acc_schema t in
                let _, c = Cost.measure (fun () -> Engine.answer engine ~q_a) in
                query_ops := !query_ops + Cost.total c;
                incr n_queries)
          ops)
  in
  (* the alternative the maintenance path displaces: a from-scratch
     build of the post-churn graph (op-counted once; a rebuild-per-delta
     baseline would pay this for every one of the deltas) *)
  let final_db = Db.create () in
  Db.add_pairs final_db "R" (Hashtbl.fold (fun e () acc -> e :: acc) live []);
  let (rebuilt, rebuild_cost), rebuild_wall =
    timed (fun () ->
        Cost.scoped (fun () ->
            Engine.build_auto ~counted:true ~max_pmtds:128 q ~db:final_db
              ~budget))
  in
  let rebuild_ops = Cost.total rebuild_cost in
  (* the maintained engine must be observationally the rebuild *)
  let reqs =
    let rng = Rng.create 117 in
    let sample = Rng.zipf_sampler rng ~n:vertices ~s:1.5 in
    List.init 256 (fun _ ->
        Relation.singleton acc_schema (Array.init arity (fun _ -> sample ())))
  in
  let identical_answers =
    List.for_all2
      (fun (r, _) (r', _) -> Relation.equal r r')
      (Engine.answer_batch engine reqs)
      (Engine.answer_batch rebuilt reqs)
  in
  let avg_delta_ops =
    float_of_int !delta_ops /. float_of_int (max 1 !n_deltas)
  in
  let delta_rebuild_ratio = float_of_int rebuild_ops /. avg_delta_ops in
  let sorted_walls = Array.of_list !delta_walls in
  Array.sort compare sorted_walls;
  let avg_delta_wall =
    Array.fold_left ( +. ) 0.0 sorted_walls
    /. float_of_int (max 1 (Array.length sorted_walls))
  in
  Printf.printf
    "churn: %d ops (%d deltas, %d effective, %d queries) in %.3fs\n" n_ops
    !n_deltas !applied !n_queries churn_wall;
  Printf.printf
    "deltas: avg %.0f ops (first, incl. thaw: %d), wall p50 %.6fs p99 %.6fs\n"
    avg_delta_ops !first_delta_ops
    (percentile sorted_walls 0.50)
    (percentile sorted_walls 0.99);
  Printf.printf "rebuild of the final graph: %d ops, %.3fs wall\n" rebuild_ops
    rebuild_wall;
  Printf.printf
    "per-delta maintenance is %.0fx cheaper than a rebuild (ops), %.0fx \
     (wall) — identical answers after churn: %b\n"
    delta_rebuild_ratio
    (rebuild_wall /. max 1e-9 avg_delta_wall)
    identical_answers;
  record "edges" (Json.Int (List.length edges));
  record "budget" (Json.Int budget);
  record "space" (Json.Int (Engine.space engine));
  record "build_wall_s" (Json.Float build_wall);
  record "ops" (Json.Int n_ops);
  record "deltas" (Json.Int !n_deltas);
  record "deltas_applied" (Json.Int !applied);
  record "queries" (Json.Int !n_queries);
  record "epoch" (Json.Int (Engine.epoch engine));
  record "churn_wall_s" (Json.Float churn_wall);
  record "delta_ops_total" (Json.Int !delta_ops);
  record "delta_ops_avg" (Json.Float avg_delta_ops);
  record "first_delta_ops" (Json.Int !first_delta_ops);
  record "delta_wall_p50_s" (Json.Float (percentile sorted_walls 0.50));
  record "delta_wall_p99_s" (Json.Float (percentile sorted_walls 0.99));
  record "query_ops_avg"
    (Json.Float (float_of_int !query_ops /. float_of_int (max 1 !n_queries)));
  record "rebuild_ops" (Json.Int rebuild_ops);
  record "rebuild_wall_s" (Json.Float rebuild_wall);
  record "delta_rebuild_ratio" (Json.Float delta_rebuild_ratio);
  record "delta_rebuild_wall_ratio"
    (Json.Float (rebuild_wall /. max 1e-9 avg_delta_wall));
  record "identical_answers" (Json.Bool identical_answers)

(* ------------------------------------------------------------------ *)
(* emp-agg                                                              *)
(* ------------------------------------------------------------------ *)

let emp_agg () =
  section "emp-agg"
    "Empirical — semiring aggregates vs materialize-then-fold (matched \
     budgets)";
  (* same regime as emp-cache: 3-reach at a tight space budget keeps the
     materialized join expensive, so pushing the semiring fold through
     answering has real work to displace.  Two table budgets trace the
     space-time tradeoff: a tight partial table (most requests miss, and
     their missed rows are answered online from their neighbourhood)
     and a complete one (every request is pure probes). *)
  let vertices = 400 in
  let edges = Graphs.zipf_both ~seed:151 ~vertices ~edges:4_000 ~s:1.1 in
  let q = Cq.Library.k_path 3 in
  let budget = 1_000 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let engine, build_wall =
    timed (fun () -> Engine.build_auto ~max_pmtds:128 q ~db ~budget)
  in
  Printf.printf "|E| = %d, budget %d, space %d (built in %.3fs)\n"
    (List.length edges) budget (Engine.space engine) build_wall;
  let requests = 800 and batch = 16 in
  let acc_schema = Engine.access_schema engine in
  let arity = Schema.arity acc_schema in
  (* each request is one multi-tuple aggregate: both paths reduce the
     same 16 access tuples to a single scalar *)
  let reqs =
    let rng = Rng.create 117 in
    let sample = Rng.zipf_sampler rng ~n:vertices ~s:1.5 in
    List.init requests (fun _ ->
        Relation.of_list acc_schema
          (List.init batch (fun _ -> Array.init arity (fun _ -> sample ()))))
  in
  let serve f =
    let ops = ref 0 in
    let out, wall =
      timed (fun () ->
          List.map
            (fun q_a ->
              let v, c = f q_a in
              ops := !ops + Cost.total c;
              v)
            reqs)
    in
    (out, !ops, wall)
  in
  let run_kind ~label k =
    let name = Stt_semiring.Semiring.name k in
    let fast, fast_ops, fast_wall =
      serve (fun q_a -> Engine.answer_agg engine k ~q_a)
    in
    let slow, slow_ops, slow_wall =
      serve (fun q_a -> Engine.agg_baseline engine k ~q_a)
    in
    let identical = List.for_all2 (fun a b -> a = b) fast slow in
    let ratio = ops_ratio ~slow:slow_ops ~fast:fast_ops in
    Printf.printf
      "  %-6s agg %9d ops %6.3fs  |  materialize-then-fold %9d ops %6.3fs  \
       -> %.1fx fewer ops, identical %b\n"
      name fast_ops fast_wall slow_ops slow_wall ratio identical;
    record
      (label ^ "_" ^ name)
      (Json.Obj
         [
           ("agg_ops", Json.Int fast_ops);
           ("agg_wall_s", Json.Float fast_wall);
           ("baseline_ops", Json.Int slow_ops);
           ("baseline_wall_s", Json.Float slow_wall);
           ("ops_ratio", Json.Float ratio);
           ("identical_answers", Json.Bool identical);
         ]);
    (identical, ratio)
  in
  let run_point ~label ~agg_budget =
    let (), agg_wall =
      timed (fun () -> Engine.enable_agg engine ~db ~budget:agg_budget)
    in
    let complete =
      List.for_all (Engine.agg_complete engine) Stt_semiring.Semiring.all
    in
    Printf.printf
      "%s tables (budget %d): %d entries, complete %b (built in %.3fs)\n"
      label agg_budget
      (Engine.agg_table_size engine)
      complete agg_wall;
    let results = List.map (run_kind ~label) Stt_semiring.Semiring.all in
    record (label ^ "_agg_budget") (Json.Int agg_budget);
    record (label ^ "_agg_table_size") (Json.Int (Engine.agg_table_size engine));
    record (label ^ "_complete") (Json.Bool complete);
    record (label ^ "_agg_build_wall_s") (Json.Float agg_wall);
    ( List.for_all fst results,
      List.fold_left (fun acc (_, r) -> min acc r) infinity results )
  in
  let tight_ok, tight_ratio = run_point ~label:"tight" ~agg_budget:20_000 in
  let full_ok, full_ratio = run_point ~label:"full" ~agg_budget:200_000 in
  let identical_answers = tight_ok && full_ok in
  (* the headline ratio is the worst kind at the complete-table point:
     the op-count twin of a wall-clock speedup, machine-independent for
     regression gating *)
  Printf.printf
    "aggregate answering is >= %.1fx cheaper than materialize-then-fold \
     (complete tables; %.1fx at the tight budget) across COUNT/SUM/MIN/MAX — \
     identical answers: %b\n"
    full_ratio tight_ratio identical_answers;
  record "edges" (Json.Int (List.length edges));
  record "budget" (Json.Int budget);
  record "space" (Json.Int (Engine.space engine));
  record "build_wall_s" (Json.Float build_wall);
  record "requests" (Json.Int requests);
  record "batch" (Json.Int batch);
  record "identical_answers" (Json.Bool identical_answers);
  record "agg_ops_ratio" (Json.Float full_ratio);
  record "tight_agg_ops_ratio" (Json.Float tight_ratio)

let exact_curves () =
  section "curves"
    "Exact piecewise-linear combined curves (no grid artifacts)";
  List.iter
    (fun (name, q) ->
      let rules = Rule.generate q (Enum.pmtds ~max_pmtds:128 q) in
      let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
      let curve =
        Curve.combined rules ~dc ~ac ~logq:Rat.zero ~lo:Rat.zero
          ~hi:(Rat.of_int 2)
      in
      Format.printf "%s:@.  @[<v>%a@]@." name Curve.pp curve;
      record name
        (Json.List
           (List.map
              (fun (s : Curve.segment) ->
                Json.Obj
                  [
                    ("lo", json_rat s.Curve.lo);
                    ("hi", json_rat s.Curve.hi);
                    ("lo_t", json_rat s.Curve.lo_t);
                    ("hi_t", json_rat s.Curve.hi_t);
                  ])
              curve)))
    [ ("2-reachability", Cq.Library.k_path 2);
      ("3-reachability", Cq.Library.k_path 3);
      ("square", Cq.Library.square) ]

let proofs () =
  section "proofs"
    "Machine-checked paper proof corpus + automatic derivation";
  record "entries"
    (Json.List
       (List.map
          (fun (e : Paper_proofs.entry) ->
            let names = e.Paper_proofs.var_names in
            Format.printf "%-32s %a@." e.Paper_proofs.name Tradeoff.pp
              e.Paper_proofs.tradeoff;
            Format.printf "  S-side: %a@."
              (Stt_polymatroid.Proof.pp names)
              e.Paper_proofs.seq_s;
            Format.printf "  T-side: %a@."
              (Stt_polymatroid.Proof.pp names)
              e.Paper_proofs.seq_t;
            (* try to rediscover the S-side sequence automatically *)
            let rediscovered =
              if e.Paper_proofs.n <= 4 then
                match
                  Stt_polymatroid.Proof.derive ~max_depth:6
                    ~delta:e.Paper_proofs.delta_s
                    ~lambda:e.Paper_proofs.lambda_s ()
                with
                | Some seq ->
                    Format.printf "  S-side rediscovered by search: %a@."
                      (Stt_polymatroid.Proof.pp names)
                      seq;
                    Json.Bool true
                | None ->
                    Format.printf
                      "  (search did not rediscover the S-side)@.";
                    Json.Bool false
              else Json.Null
            in
            Json.Obj
              [
                ("name", Json.String e.Paper_proofs.name);
                ("tradeoff", json_tradeoff e.Paper_proofs.tradeoff);
                ("s_side_rediscovered", rediscovered);
              ])
          Paper_proofs.all))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "Bechamel wall-clock microbenchmarks (one per family)";
  let open Bechamel in
  let open Toolkit in
  let q3 = Cq.Library.k_path 3 in
  let rules3 = Rule.generate q3 (Enum.pmtds q3) in
  let dc3 = Degree.default_dc q3.Cq.cq and ac3 = Degree.default_ac q3 in
  let bench_lp =
    Test.make ~name:"tab1-jointflow-lp"
      (Staged.stage (fun () ->
           ignore
             (Jointflow.obj (List.hd rules3) ~dc:dc3 ~ac:ac3 ~logd:Rat.one
                ~logq:Rat.zero ~logs:Rat.one)))
  in
  let edges = Graphs.zipf_both ~seed:201 ~vertices:300 ~edges:3_000 ~s:1.1 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let engine = Engine.build_auto (Cq.Library.k_path 2) ~db ~budget:2_000 in
  let bench_engine =
    let rng = Rng.create 1 in
    Test.make ~name:"fig3-engine-answer"
      (Staged.stage (fun () ->
           ignore
             (Engine.answer_tuple engine
                [| Rng.int rng 300; Rng.int rng 300 |])))
  in
  let memberships =
    Sets.zipf_sizes ~seed:202 ~universe:2_000 ~sets:300 ~memberships:15_000
      ~s:1.2
  in
  let sd = Stt_apps.Setdisj.build ~k:2 ~memberships ~budget:10_000 in
  let bench_setdisj =
    let rng = Rng.create 2 in
    Test.make ~name:"emp-setdisj-query"
      (Staged.stage (fun () ->
           ignore
             (Stt_apps.Setdisj.disjoint sd
                [| Rng.int rng 300; Rng.int rng 300 |])))
  in
  let reach = Stt_apps.Reach.Baseline.build ~k:3 edges ~budget:10_000 in
  let bench_reach =
    let rng = Rng.create 3 in
    Test.make ~name:"emp-reach-baseline-query"
      (Staged.stage (fun () ->
           ignore
             (Stt_apps.Reach.Baseline.query reach (Rng.int rng 300)
                (Rng.int rng 300))))
  in
  let inst = Stt_apps.Hierarchical.generate ~seed:203 ~posts:200 ~size:3_000 in
  let hier = Stt_apps.Hierarchical.Adapted.build inst ~epsilon:0.5 in
  let bench_hier =
    let rng = Rng.create 4 in
    Test.make ~name:"fig5-hierarchical-query"
      (Staged.stage (fun () ->
           ignore
             (Stt_apps.Hierarchical.Adapted.query hier
                (Array.init 4 (fun _ -> Rng.int rng 50)))))
  in
  let run_one test =
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Printf.printf "  %-28s %14.1f ns/run\n" name est;
            record name (Json.Obj [ ("ns_per_run", Json.Float est) ])
        | _ -> Printf.printf "  %-28s (no estimate)\n" name)
      results
  in
  List.iter run_one
    [ bench_lp; bench_engine; bench_setdisj; bench_reach; bench_hier ]

(* ------------------------------------------------------------------ *)
(* driver                                                               *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* emp-factor                                                           *)
(* ------------------------------------------------------------------ *)

module Fconfig = Stt_factorized.Config

let emp_factor () =
  section "emp-factor"
    "Empirical — factorized d-representations: more materialization per \
     stored-singleton budget";
  (* 3-reach on a hub-dense Zipf graph: many sources share identical
     reachable sets, exactly the suffix sharing a d-representation
     stores once — so the same stored-singleton budget funds an
     amplified split structure that materializes strictly more *)
  let saved_mode = Fconfig.mode () in
  Fun.protect ~finally:(fun () -> Fconfig.set_mode saved_mode) @@ fun () ->
  let vertices = 300 in
  let edges = Graphs.zipf_both ~seed:131 ~vertices ~edges:6_000 ~s:1.3 in
  let q = Cq.Library.k_path 3 in
  let budget = 800 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let build mode =
    Fconfig.set_mode mode;
    timed (fun () -> Engine.build_auto ~max_pmtds:128 q ~db ~budget)
  in
  let flat, flat_wall = build Fconfig.Off in
  let fact, fact_wall = build Fconfig.Auto in
  let flat_rows = Engine.materialized_rows flat in
  let fact_rows = Engine.materialized_rows fact in
  let ratio = compression_ratio ~rows:fact_rows ~size:(Engine.space fact) in
  Printf.printf
    "flat:       space %6d singletons = %6d rows              (built in \
     %.3fs)\n"
    (Engine.space flat) flat_rows flat_wall;
  Printf.printf
    "factorized: space %6d singletons = %6d rows (%d d-reps)  (built in \
     %.3fs)\n"
    (Engine.space fact) fact_rows
    (Engine.factorized_views fact)
    fact_wall;
  Printf.printf
    "same budget %d: %.2fx rows per stored singleton, %+d rows more \
     materialized\n"
    budget ratio (fact_rows - flat_rows);
  (* serve path at equal budget, no cache: the factorized engine's extra
     materialization turns delegated online joins into stored-view
     probes *)
  let requests = 2_000 in
  let batch = 16 in
  let acc_schema = Engine.access_schema fact in
  let arity = Schema.arity acc_schema in
  let reqs =
    let rng = Rng.create 117 in
    let sample = Rng.zipf_sampler rng ~n:vertices ~s:1.5 in
    List.init requests (fun _ ->
        Relation.singleton acc_schema (Array.init arity (fun _ -> sample ())))
  in
  let serve engine =
    let ops = ref 0 and answers = ref [] in
    let (), wall =
      timed (fun () ->
          List.iter
            (fun group ->
              List.iter
                (fun (r, c) ->
                  ops := !ops + Cost.total c;
                  answers := r :: !answers)
                (Engine.answer_batch engine group))
            (chunks batch reqs))
    in
    (List.rev !answers, !ops, wall)
  in
  let ans_flat, ops_flat, wall_flat = serve flat in
  let ans_fact, ops_fact, wall_fact = serve fact in
  let serve_identical = identical_relations ans_flat ans_fact in
  let serve_ops_ratio = ops_ratio ~slow:ops_flat ~fast:ops_fact in
  let throughput w = float_of_int requests /. w in
  Printf.printf
    "serve zipf(1.5): flat %9.0f answers/sec %9d ops | factorized %9.0f \
     answers/sec %9d ops -> %.2fx fewer ops, identical answers: %b\n"
    (throughput wall_flat) ops_flat (throughput wall_fact) ops_fact
    serve_ops_ratio serve_identical;
  (* answer cache at a fixed budget: compressed values make the same
     budget hold more entries *)
  let cache_budget = 2_000 in
  let cache_run mode =
    Fconfig.set_mode mode;
    Engine.attach_cache fact ~budget:cache_budget;
    let ans, ops, wall = serve fact in
    let s =
      match Engine.cache_stats fact with
      | Some s -> s
      | None -> assert false
    in
    Engine.attach_cache fact ~budget:0;
    (ans, ops, wall, s)
  in
  let ans_cflat, _, _, s_cflat = cache_run Fconfig.Off in
  let ans_cfact, _, _, s_cfact = cache_run Fconfig.Auto in
  let hit_rate (s : Stt_cache.Cache.stats) =
    let lookups = s.Stt_cache.Cache.hits + s.misses in
    if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups
  in
  let cache_identical =
    identical_relations ans_flat ans_cflat
    && identical_relations ans_flat ans_cfact
  in
  let entries_ratio =
    float_of_int s_cfact.entries /. float_of_int (max 1 s_cflat.entries)
  in
  Printf.printf
    "cache (%d): flat values %5d entries hit rate %.3f | factorized values \
     %5d entries (%d compressed) hit rate %.3f -> %.2fx capacity\n"
    cache_budget s_cflat.entries (hit_rate s_cflat) s_cfact.entries
    s_cfact.factorized (hit_rate s_cfact) entries_ratio;
  let identical_answers = serve_identical && cache_identical in
  record "edges" (Json.Int (List.length edges));
  record "budget" (Json.Int budget);
  record "flat_space" (Json.Int (Engine.space flat));
  record "flat_rows" (Json.Int flat_rows);
  record "flat_build_wall_s" (Json.Float flat_wall);
  record "fact_space" (Json.Int (Engine.space fact));
  record "fact_rows" (Json.Int fact_rows);
  record "fact_views" (Json.Int (Engine.factorized_views fact));
  record "fact_build_wall_s" (Json.Float fact_wall);
  record "compression_ratio" (Json.Float ratio);
  record "extra_rows" (Json.Int (fact_rows - flat_rows));
  record "requests" (Json.Int requests);
  record "batch" (Json.Int batch);
  record "serve_ops_flat" (Json.Int ops_flat);
  record "serve_ops_fact" (Json.Int ops_fact);
  record "serve_ops_ratio" (Json.Float serve_ops_ratio);
  record "answers_per_sec" (Json.Float (throughput wall_fact));
  record "flat_answers_per_sec" (Json.Float (throughput wall_flat));
  record "cache_budget" (Json.Int cache_budget);
  record "cache_entries_flat" (Json.Int s_cflat.entries);
  record "cache_entries_fact" (Json.Int s_cfact.entries);
  record "cache_factorized_entries" (Json.Int s_cfact.factorized);
  record "cache_hit_rate_flat" (Json.Float (hit_rate s_cflat));
  record "cache_hit_rate_fact" (Json.Float (hit_rate s_cfact));
  record "cache_entries_ratio" (Json.Float entries_ratio);
  record "identical_answers" (Json.Bool identical_answers)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("tab1", tab1);
    ("fig3a", fig3 ~k:3 ~steps:8);
    ("fig3b", fig3 ~k:4 ~steps:4);
    ("fig4", fig4);
    ("fig5", fig5);
    ("ex62", ex62);
    ("ex63", ex63);
    ("emp-setdisj", emp_setdisj);
    ("emp-reach", emp_reach);
    ("emp-hier", emp_hier);
    ("emp-square", emp_square);
    ("emp-serve", emp_serve);
    ("emp-cache", emp_cache);
    ("emp-churn", emp_churn);
    ("emp-agg", emp_agg);
    ("emp-factor", emp_factor);
    ("curves", exact_curves);
    ("proofs", proofs);
    ("micro", micro);
  ]

(* Run one experiment under observability, then write its artifact:
   recorded numbers plus the full trace of the run. *)
let run_experiment (id, f) =
  art := [];
  Obs.set_enabled true;
  Obs.reset ();
  let (), wall =
    timed (fun () -> Fun.protect ~finally:(fun () -> Obs.set_enabled false) f)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "stt-bench/1");
        ("experiment", Json.String id);
        ("wall_s", Json.Float wall);
        ("data", Json.Obj (List.rev !art));
        ("trace", Obs.trace ());
      ]
  in
  let path = Filename.concat !artifact_dir ("BENCH_" ^ id ^ ".json") in
  Json.to_file path doc;
  Printf.printf "artifact: %s\n" path

let () =
  (* --out <dir> redirects the BENCH_<id>.json artifacts (default: cwd) *)
  let rec strip_out acc = function
    | "--out" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then (
          Printf.eprintf "--out %s: not a directory\n" dir;
          exit 1);
        artifact_dir := dir;
        strip_out acc rest
    | [ "--out" ] ->
        Printf.eprintf "--out requires a directory argument\n";
        exit 1
    | x :: rest -> strip_out (x :: acc) rest
    | [] -> List.rev acc
  in
  match strip_out [] (List.tl (Array.to_list Sys.argv)) with
  | [ "--list" ] -> List.iter (fun (id, _) -> print_endline id) experiments
  | [] -> List.iter run_experiment experiments
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> run_experiment (id, f)
          | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
        ids
