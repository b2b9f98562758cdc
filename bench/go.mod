module github.com/graphsd/graphsd/bench

go 1.22

require github.com/graphsd/graphsd v0.0.0

// The benchmark is a module of its own so it carries its own build file,
// yet its import path sits under the parent module's, which is what lets
// it import the parent's internal/ packages.
replace github.com/graphsd/graphsd => ../
