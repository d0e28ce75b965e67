// The benchmark is a module of its own so that it builds only from the
// files under benchmark/ plus the repository it measures: the import
// path keeps the flashsim/ prefix, which is what lets it reach
// flashsim/internal/... through the replace below.
module flashsim/benchmark

go 1.22

require flashsim v0.0.0

replace flashsim => ../
