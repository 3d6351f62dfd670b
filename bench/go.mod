// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's ./... (tier-1 build and
// test time do not change). The import path keeps the repro/ prefix so it
// may import repro/internal/...; the replace points at the repo root.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
