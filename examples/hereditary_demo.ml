(* Two extras built on the same partition machinery:

   1. the generic hereditary-property tester the paper sketches after
      Corollary 16 (here: outerplanarity, checked per part), and
   2. Kuratowski-witness extraction — concrete rejection evidence.

     dune exec examples/hereditary_demo.exe *)

open Graphlib

(* Outerplanar iff adding a universal apex vertex keeps the graph planar. *)
let outerplanar g =
  let n = Graph.n g in
  let apex = n in
  let edges =
    Graph.fold_edges (fun acc _ u v -> (u, v) :: acc) [] g
    @ List.init n (fun v -> (v, apex))
  in
  Planarity.Lr.is_planar (Graph.make ~n:(n + 1) edges)

(* The hereditary tester on the shared harness: Stage I partitions, and
   Stage II checks each part's induced subgraph, rejecting at the part
   root.  Returns the number of parts and the cut size alongside the
   verdict. *)
let test_hereditary g ~eps ~check_part =
  Tester.Harness.run ~property:"outerplanarity" g ~eps
    ~stage2:(fun st ~eps:_ ~seed:_ ->
      let parts = Partition.State.parts st in
      List.iter
        (fun (root, members) ->
          if not (check_part (fst (Graph.induced g members))) then
            st.Partition.State.rejections <-
              (root, Printf.sprintf "part %d is not outerplanar" root)
              :: st.Partition.State.rejections)
        parts;
      (List.length parts, Partition.State.cut_edges st))

let () =
  let rng = Random.State.make [| 77 |] in
  Printf.printf "hereditary tester (outerplanarity per part):\n";
  List.iter
    (fun (name, g) ->
      let parts, t = test_hereditary g ~eps:0.3 ~check_part:outerplanar in
      Printf.printf "  %-22s accepted=%b (%s)\n" name
        (t.Tester.Harness.verdict = Tester.Harness.Accept)
        (match parts with
        | Some (parts, cut) -> Printf.sprintf "parts=%d, cut=%d" parts cut
        | None -> "Stage I rejected"))
    [
      ("cycle 120 (outerplanar)", Generators.cycle 120);
      ("tree 120 (outerplanar)", Generators.random_tree rng 120);
      ("triangulation 120", Generators.apollonian rng 120);
    ];
  Printf.printf "\nKuratowski witnesses (rejection evidence):\n";
  List.iter
    (fun (name, g) ->
      match Planarity.Kuratowski.find g with
      | None -> Printf.printf "  %-22s planar, no witness\n" name
      | Some w ->
          Printf.printf "  %-22s contains a %s subdivision (%d edges, verified=%b)\n"
            name
            (match w.Planarity.Kuratowski.kind with
            | Planarity.Kuratowski.K5 -> "K5"
            | Planarity.Kuratowski.K33 -> "K3,3")
            (List.length w.Planarity.Kuratowski.edges)
            (Planarity.Kuratowski.verify g w))
    [
      ("petersen", Generators.petersen ());
      ("K6", Generators.complete 6);
      ("grid 8x8", Generators.grid 8 8);
      ("far(150, 0.2)", Generators.far_from_planar rng ~n:150 ~eps:0.2);
    ]
