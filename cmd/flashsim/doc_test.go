package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"
	"testing"
)

// TestDocumentedInvocationsParse: every flashsim command line that
// README.md shows in a fenced block, and every one in this package's
// doc comment, names a subcommand and parses against that subcommand's
// flag set. Nothing runs. A flag the CLI no longer defines fails here
// rather than in a reader's shell.
func TestDocumentedInvocationsParse(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var pkgDoc []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if strings.HasPrefix(line, "\t") { // a code block in the doc comment
			pkgDoc = append(pkgDoc, line)
		}
	}
	for _, doc := range []struct {
		name  string
		lines []string
		min   int // invocations the walk must find, or it is broken
	}{
		{"README.md", fencedLines(string(readme)), 20},
		{"the package doc", pkgDoc, 10},
	} {
		found := 0
		for _, line := range joinContinuations(doc.lines) {
			args, ok := invocation(line)
			if !ok {
				continue
			}
			found++
			if err := parseOnly(args); err != nil {
				t.Errorf("%s: %s: %v", doc.name, strings.TrimSpace(line), err)
			}
		}
		t.Logf("%s: %d invocations", doc.name, found)
		if found < doc.min {
			t.Errorf("%s: found %d flashsim invocations, want at least %d: the walk is broken", doc.name, found, doc.min)
		}
	}
}

// parseOnly resolves args' subcommand and parses the rest against the
// flag set run builds for it, without running anything.
func parseOnly(args []string) error {
	name, cmd, args := lookup(args)
	if cmd == nil {
		return fmt.Errorf("unknown subcommand %q", name)
	}
	fs := flag.NewFlagSet("flashsim "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cmd.flags(fs)
	return fs.Parse(args)
}

// fencedLines is every line inside a ``` block of a Markdown text.
func fencedLines(md string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			continue
		}
		if in {
			out = append(out, line)
		}
	}
	return out
}

// joinContinuations folds each line that ends in a backslash into the
// line after it.
func joinContinuations(lines []string) []string {
	var out []string
	cur := ""
	for _, line := range lines {
		if trimmed := strings.TrimRight(line, " \t"); strings.HasSuffix(trimmed, `\`) {
			cur += strings.TrimSuffix(trimmed, `\`) + " "
			continue
		}
		out = append(out, cur+line)
		cur = ""
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// invocation returns the arguments after a flashsim command word
// (flashsim, ./flashsim) on a line, a "$ " prompt skipped and a #
// comment cut. ok is false when the line runs some other program.
func invocation(line string) (args []string, ok bool) {
	words := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), "$ "))
	if len(words) == 0 || (words[0] != "flashsim" && !strings.HasSuffix(words[0], "/flashsim")) {
		return nil, false
	}
	for _, w := range words[1:] {
		if strings.HasPrefix(w, "#") {
			break
		}
		args = append(args, w)
	}
	return args, true
}
