#!/bin/sh
# One CLI input-contract case, run by ctest:
#
#   cli_case.sh reject BINARY [ARGS...]   exit 2, nothing on stdout
#   cli_case.sh exit2  BINARY [ARGS...]   exit 2
#   cli_case.sh help   BINARY [ARGS...]   exit 0, stdout starts "usage: "
#
# "reject" pins that bad input fails before the banner or any scene
# work; "exit2" is for inputs read after the banner (GCC3D_WORKERS).
mode=$1
shift
out=$("$@")
rc=$?
case $mode in
help) expected=0 ;;
*) expected=2 ;;
esac
if [ "$rc" -ne "$expected" ]; then
    echo "exit code $rc, expected $expected"
    exit 1
fi
case $mode in
reject)
    if [ -n "$out" ]; then
        echo "rejected input still printed to stdout:"
        echo "$out"
        exit 1
    fi
    ;;
help)
    case $out in
    "usage: "*) ;;
    *)
        echo "--help printed no usage text"
        exit 1
        ;;
    esac
    ;;
esac
