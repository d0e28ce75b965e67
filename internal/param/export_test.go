package param

// SetEncodeHook installs f as the function every AppendCanonical calls
// (nil removes it), for tests that count encodings from outside the
// package.
func SetEncodeHook(f func()) { encodeHook = f }
