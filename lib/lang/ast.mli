(** Abstract syntax of the exchange DSL, before name resolution. *)

type role = Consumer | Producer | Broker

type asset = Pays of int  (** cents *) | Gives of string

type leg = { party : string Loc.located; asset : asset }

type side = Buyer | Seller
(** [Buyer] resolves to the deal's [Left] side, [Seller] to [Right];
    [left]/[right] in the surface syntax map here too. *)

type cref = { deal : string Loc.located; side : side }

type decl =
  | Principal of { name : string Loc.located; role : role }
  | Trusted of string Loc.located
  | Deal of {
      id : string Loc.located;
      first : leg;
      second : leg;
      via : string Loc.located;
      deadline : int option;  (** [within N] clause *)
    }
  | Priority of { owner : string Loc.located; target : cref }
  | Split of { owner : string Loc.located; target : cref }
  | Trust of { truster : string Loc.located; trustee : string Loc.located }
      (** in an exchange program: sugar — the trustee plays the
          intermediary of every deal joining the two. In a web program
          (one with [request] declarations): a raw trust edge, whose
          trustee may also be a trusted agent *)
  | Relay of string Loc.located
      (** web programs: this principal will resell across trust domains *)
  | Request of {
      id : string Loc.located;
      buyer : string Loc.located;
      good : string;
      seller : string Loc.located;
      price : int;  (** cents *)
    }  (** web programs: a sale to be routed over the trust web *)
  | Persona of { trusted : string Loc.located; principal : string Loc.located }

type program = decl list
