module Spec_index = Trust_core.Spec_index

let price_for spec = Spec_index.price (Spec_index.make spec)
