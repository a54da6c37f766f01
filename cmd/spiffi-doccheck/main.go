// Command spiffi-doccheck keeps the documentation honest. It walks the
// repo's root-level markdown files and fails on two kinds of drift:
//
//   - broken intra-repo links: a [text](target) whose target — resolved
//     relative to the file, with any #fragment stripped — does not exist
//     on disk. External links (http/https/mailto) and pure-anchor links
//     (#section) are skipped; fragments are not verified.
//
//   - undocumented flags: every flag the simulator CLI registers
//     (internal/cli.Register, shared by all cmd/ binaries) must appear
//     in README.md as `-name`, so `-h` output and the README flag
//     reference cannot drift apart.
//
//   - retired flags: every backticked `-name` in README.md's
//     "### Flag reference" table must be registered by cli.Register or
//     be one of the per-tool flags in toolFlags, so a flag removed from
//     the CLI cannot linger in the table.
//
// Run it via `make doc-check` (part of `make verify`). Exit status 1
// lists every finding; 0 means the docs match the tree and the CLI.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"spiffi/internal/cli"
)

// linkRE matches inline markdown links [text](target). Reference-style
// links and autolinks are rare in this repo and not checked.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// flagRE matches a backticked flag name such as `-terminals`.
var flagRE = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// toolFlags are the flags in README's flag reference that one tool
// registers itself rather than through cli.Register.
var toolFlags = map[string]bool{
	"postmortem": true, // spiffi-sim
	"v":          true, // spiffi-sim, spiffi-maxterm
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string

	mds, err := filepath.Glob(filepath.Join(*root, "*.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, target := range links(string(data)) {
			p := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (no such file %s)", filepath.Base(md), target, p))
			}
		}
	}

	readme, err := os.ReadFile(filepath.Join(*root, "README.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	registered := map[string]bool{}
	for _, name := range flagNames() {
		registered[name] = true
		if !strings.Contains(string(readme), "-"+name) {
			problems = append(problems,
				fmt.Sprintf("README.md: flag -%s (in every binary's -h output) is undocumented", name))
		}
	}
	for _, m := range flagRE.FindAllStringSubmatch(flagReference(string(readme)), -1) {
		if name := m[1]; !registered[name] && !toolFlags[name] {
			problems = append(problems,
				fmt.Sprintf("README.md: flag reference lists -%s, which no tool registers", name))
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doc-check: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doc-check: %d markdown files, %d CLI flags, all clean\n", len(mds), len(flagNames()))
}

// links extracts the intra-repo link targets from a markdown document:
// everything but external schemes and pure-anchor links, with any
// #fragment stripped.
func links(doc string) []string {
	var out []string
	for _, m := range linkRE.FindAllStringSubmatch(doc, -1) {
		target := m[1]
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue // pure anchor: [text](#section)
		}
		if u, err := url.Parse(target); err == nil && u.Scheme != "" {
			continue // http, https, mailto, ...
		}
		out = append(out, target)
	}
	return out
}

// flagReference returns the table rows of README's "### Flag reference"
// section, which runs from its heading to the next heading.
func flagReference(readme string) string {
	_, sec, _ := strings.Cut(readme, "\n### Flag reference\n")
	var rows strings.Builder
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if strings.HasPrefix(line, "|") {
			rows.WriteString(line + "\n")
		}
	}
	return rows.String()
}

// flagNames returns every flag name the shared CLI registers, in
// registration-independent sorted order.
func flagNames() []string {
	fs := flag.NewFlagSet("doccheck", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cli.Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}
