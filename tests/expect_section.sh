#!/bin/sh
# Require report sections in a bench's saved stdout: at least one line
# starting with PREFIX, and each such header followed by at least one line
# before the next "===" header (or the end of the file).
#
# Usage: tests/expect_section.sh FILE PREFIX
file=$1
prefix=$2
[ -r "$file" ] || { echo "cannot read $file"; exit 1; }
awk -v p="$prefix" '
    function close_section() {
        if (inside && !rows) { print "empty section: " header; bad = 1 }
        inside = 0
    }
    /^===/ {
        close_section()
        if (index($0, p) == 1) { inside = 1; rows = 0; header = $0; found++ }
        next
    }
    inside && NF { rows++ }
    END {
        close_section()
        if (!found) { print "no section starting \"" p "\""; exit 1 }
        if (bad) exit 1
        print found " section(s) starting \"" p "\""
    }' "$file"
