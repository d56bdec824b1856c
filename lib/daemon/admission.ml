type 'a t = { bound : int; q : 'a Queue.t }

let create ?(bound = 64) () =
  if bound < 0 then invalid_arg "Admission.create: negative bound";
  { bound; q = Queue.create () }

let try_push t x =
  if Queue.length t.q >= t.bound then false
  else begin
    Queue.add x t.q;
    true
  end

let pop t = Queue.take_opt t.q
