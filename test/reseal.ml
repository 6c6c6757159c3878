(* Re-seal a solve-store record with a changed objective: [reseal
   FILE] adds 1 to the objective of the optimum the record holds and
   writes it back under a valid checksum, so every byte-level check of
   the store accepts it and only the certificate can refuse it.  The
   cram tests forge a record with it. *)

let () =
  let path = Sys.argv.(1) in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  (* [magic \n length checksum \n payload], the payload [keylen \n key
     value] *)
  let nl1 = String.index raw '\n' in
  let nl2 = String.index_from raw (nl1 + 1) '\n' in
  let payload = String.sub raw (nl2 + 1) (String.length raw - nl2 - 1) in
  let knl = String.index payload '\n' in
  let head = knl + 1 + int_of_string (String.sub payload 0 knl) in
  let value = String.sub payload head (String.length payload - head) in
  let forged =
    match String.split_on_char '\n' value with
    | fmt :: "O" :: objective :: rest ->
      let objective = Rat.add (Rat.of_string objective) Rat.one in
      String.concat "\n" (fmt :: "O" :: Rat.to_string objective :: rest)
    | _ -> failwith ("reseal: no optimum in " ^ path)
  in
  let payload = String.sub payload 0 head ^ forged in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%s\n%d %s\n%s" (String.sub raw 0 nl1)
        (String.length payload)
        (Solve_store.checksum payload)
        payload)
