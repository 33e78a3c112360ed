; A .word in .bss on line 8 parses but fails to assemble: the error
; must still name this file and line.
        .text
        .func main
        RET
        .endfunc
        .bss
        .word 1
