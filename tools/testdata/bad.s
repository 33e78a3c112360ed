; An unknown mnemonic on line 4: errors must name this file and line.
        .text
        .func main
        BOGUS R4
        RET
        .endfunc
