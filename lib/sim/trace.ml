let price_for = Trust_core.Compile.price_for
