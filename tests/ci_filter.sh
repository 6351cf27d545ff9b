# The table filter the CI smoke steps diff `arl` output through; each step
# sources this file (it defines a function and runs nothing).
#
# filter FILE [EXTRA]
#   Drops the execution circumstances of a sweep report — the trailing
#   phase-timing block and the wall-time, throughput and worker-count rows —
#   squeezes whitespace (column widths align to the widest cell, which may
#   be a dropped row's digits) and drops trailing blank lines.  EXTRA, an
#   extended regex, names more lines to drop; the blank lines a dropped
#   block leaves behind are then squeezed to one.
filter() {
  local squeeze=cat
  if [ -n "${2:-}" ]; then
    squeeze="cat -s"
  fi
  sed '/^phase timings:/,$d' "$1" | grep -vE "wall time|per second|worker threads${2:+|$2}" |
    sed -E 's/ +/ /g; s/-+/-/g' | $squeeze | sed -e :a -e '/^$/{$d;N;ba' -e '}'
}
