// Package graphsd is a reproduction of "GraphSD: A State and Dependency
// aware Out-of-Core Graph Processing System" (Xu, Jiang, Wang, Cheng,
// Fang — ICPP 2022).
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory) and is driven through the commands in cmd/:
//
//	cmd/graphsd     — preprocess, run, serve, ingest, compare, verify, stats,
//	                  trace, measure
//	cmd/graphgen    — synthetic dataset generator
//	cmd/graphbench  — regenerates every table and figure of the paper
//
// `graphbench -experiment all` regenerates the paper's evaluation artifacts
// (internal/harness; its quick scale runs under `go test` as
// TestAllExperimentsQuick); EXPERIMENTS.md records measured-vs-paper
// outcomes. Speed, batch and serving alike, is measured by the one
// benchmark in bench/ (BENCHMARK.json); its serve_mixed workload drives the
// server behind `graphsd serve`.
package graphsd
