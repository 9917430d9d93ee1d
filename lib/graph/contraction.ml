type t = { coarse : Csr.t; fine_to_coarse : int array }

let contract g (m : Matching.t) =
  let n = Csr.n_vertices g in
  let fine_to_coarse = Array.make n (-1) in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if fine_to_coarse.(u) < 0 then begin
      fine_to_coarse.(u) <- !next;
      let v = m.Matching.mate.(u) in
      if v >= 0 then fine_to_coarse.(v) <- !next;
      incr next
    end
  done;
  { coarse = Csr.quotient g ~n:!next fine_to_coarse; fine_to_coarse }

let project_to_fine c assign =
  Array.map (fun cv -> assign.(cv)) c.fine_to_coarse
