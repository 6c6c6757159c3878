(* The dense [(a, b, c)] form of [Lp.standard_form], for the seed
   snapshot kernels ([Simplex_dense_reference], [Revised_dense_reference]),
   which take a dense matrix. *)

let densify ~n rows =
  Array.map
    (fun (cols, vals) ->
      let row = Array.make n Rat.zero in
      Array.iteri (fun k j -> row.(j) <- vals.(k)) cols;
      row)
    rows

let standard_form m =
  let rows, b, c = Lp.standard_form m in
  (densify ~n:(Array.length c) rows, b, c)
