# Sourced by vt_identity.sh and pairs.sh (not run): check a base commit out
# beside the working tree so both can be built and run from one place.
#
#   checkout_base <root> <base-ref>
#
# empties <root>, checks <base-ref> out into <root>/base-tree — a git
# worktree, or a shared clone where `git worktree add` is not available
# (as in the sandbox) — sets $tree to it and removes it again on EXIT.
checkout_base() {
    local root="$1" base="$2"
    tree="$root/base-tree"
    git worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$root"
    mkdir -p "$root"
    if git worktree add --quiet --detach "$tree" "$base" 2>/dev/null; then
        trap 'git worktree remove --force "$tree"' EXIT
    else
        git clone --quiet --shared . "$tree"
        git -C "$tree" checkout --quiet --detach "$(git rev-parse "$base")"
        trap 'rm -rf "$tree"' EXIT
    fi
}
