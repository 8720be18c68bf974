module rfdump/bench

go 1.22

require rfdump v0.0.0

replace rfdump => ../
