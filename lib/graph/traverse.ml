let components g =
  let n = Csr.n_vertices g in
  let label = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !count in
      incr count;
      label.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Csr.iter_neighbors g u (fun v _ ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              Queue.add v queue
            end)
      done
    end
  done;
  (label, !count)
