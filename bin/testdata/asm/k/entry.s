.text
.global entry
entry:
  mov r0, 1
  ret
